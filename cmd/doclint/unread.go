package main

import (
	_ "embed"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allowlistText is the committed allowlist: the exports nothing outside
// tests reads that stay on purpose, each with its reason.
//
//go:embed allowlist.txt
var allowlistText string

// A pkg is one walked package directory: its non-test files, and its
// example_test.go when it has one.
type pkg struct {
	dir     string // relative to the walk root, slash-separated
	fset    *token.FileSet
	pkgs    map[string]*ast.Package
	example *ast.File
}

// load expands each argument, taken relative to root, and parses every
// package directory it names.
func load(root string, args []string) ([]*pkg, error) {
	var out []*pkg
	for _, arg := range args {
		dirs, err := expand(filepath.Join(root, arg))
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			p, err := parsePkg(root, dir)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// parsePkg parses one directory's non-test files with comments, and its
// example_test.go without.
func parsePkg(root, dir string) (*pkg, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	p := &pkg{dir: filepath.ToSlash(rel), fset: fset, pkgs: pkgs}
	ex := filepath.Join(dir, "example_test.go")
	if _, err := os.Stat(ex); err == nil {
		if p.example, err = parser.ParseFile(fset, ex, nil, 0); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// parseAllowlist reads lines of the form `<dir> <name> <reason>`, where
// name is Name, Recv.Name for a method, or * for every export of the
// package. Blank lines and # comments are skipped; an entry without a
// reason is an error.
func parseAllowlist(text string) (map[string]string, error) {
	allow := map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("line %d: want <dir> <name> <reason>", i+1)
		}
		key := f[0] + " " + f[1]
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", i+1, key)
		}
		allow[key] = strings.Join(f[2:], " ")
	}
	return allow, nil
}

// An export is one exported top-level declaration of a library package.
type export struct {
	kind   string // function, method, type, const or var
	name   string // Name, or Recv.Name for a method
	ident  *ast.Ident
	method bool
}

// unreadExports reports each export of the walked non-main packages that
// nothing reads and the allowlist does not name, then each allowlist
// entry that matches no such export. An export is read when a walked
// non-test file selects its name (x.Name) or, unless it is a method,
// names it bare in the export's own package; a package's example_test.go
// reads like one of its own files. A method's receiver does not read its
// type. Reads match by name alone, so the check can miss dead code that
// shares a name with something read, but never reports live code.
func unreadExports(pkgs []*pkg, allow map[string]string) []string {
	selected := map[string]bool{}
	for _, p := range pkgs {
		for _, pk := range p.pkgs {
			for _, f := range pk.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if s, ok := n.(*ast.SelectorExpr); ok {
						selected[s.Sel.Name] = true
					}
					return true
				})
			}
		}
	}
	var out []string
	matched := map[string]bool{}
	for _, p := range pkgs {
		for name, pk := range p.pkgs {
			if name == "main" {
				continue
			}
			exports, skip := declaredExports(pk)
			bare := bareNames(pk, skip)
			example := map[string]bool{}
			if p.example != nil {
				ast.Inspect(p.example, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						example[id.Name] = true
					}
					return true
				})
			}
			for _, e := range exports {
				last := e.ident.Name
				if selected[last] || example[last] || !e.method && bare[last] {
					continue
				}
				if key := p.dir + " " + e.name; allow[key] != "" {
					matched[key] = true
					continue
				}
				if key := p.dir + " *"; allow[key] != "" {
					matched[key] = true
					continue
				}
				pos := p.fset.Position(e.ident.Pos())
				out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no non-test reader",
					filepath.ToSlash(pos.Filename), pos.Line, e.kind, e.name))
			}
		}
	}
	sort.Strings(out)
	var stale []string
	for key := range allow {
		if !matched[key] {
			stale = append(stale, fmt.Sprintf("allowlist.txt: %s matches no unread export", key))
		}
	}
	sort.Strings(stale)
	return append(out, stale...)
}

// declaredExports lists a package's exported top-level declarations,
// and returns the identifiers that declare them or name a method's
// receiver, which read nothing.
func declaredExports(pk *ast.Package) ([]export, map[*ast.Ident]bool) {
	var out []export
	skip := map[*ast.Ident]bool{}
	add := func(kind, name string, id *ast.Ident, method bool) {
		if ast.IsExported(id.Name) {
			out = append(out, export{kind, name, id, method})
			skip[id] = true
		}
	}
	for _, f := range pk.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("function", d.Name.Name, d.Name, false)
					continue
				}
				add("method", receiverName(d.Recv)+"."+d.Name.Name, d.Name, true)
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add("type", s.Name.Name, s.Name, false)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(d.Tok.String(), id.Name, id, false)
						}
					}
				}
			}
		}
	}
	return out, skip
}

// bareNames collects every identifier a package's non-test files use,
// leaving out those in skip.
func bareNames(pk *ast.Package, skip map[*ast.Ident]bool) map[string]bool {
	names := map[string]bool{}
	for _, f := range pk.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !skip[id] {
				names[id.Name] = true
			}
			return true
		})
	}
	return names
}
