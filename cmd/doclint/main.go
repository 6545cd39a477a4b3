// Command doclint enforces the repository's documentation convention:
// every exported declaration must carry a godoc comment that begins
// with the name it documents (the same shape `go doc` and pkgsite
// render). It walks the named packages' non-test sources with go/ast —
// no analysis framework, no network — and prints one line per
// violation:
//
//	doclint . ./internal/... ./cmd/... ./examples/... ./benchmark/...
//
// Arguments are package directories; a trailing /... walks every
// subdirectory containing Go files. Exit status is 1 when any
// violation is found, so CI can gate on it.
// Method receivers, unexported declarations and generated files are
// skipped; a doc comment on the factored declaration group
// (`const (...)`, `var (...)`) covers its members.
//
// One structural rule rides along: a package that declares an exported
// detector implementation — a type with ScoreAt, Config and Name
// methods, the detect.Detector contract — must carry a package-level
// doc comment. Detectors are the repo's plugin surface; their packages
// are where godoc readers land first, and an undocumented one would
// ship a bake-off row nobody can interpret.
//
// A third rule keeps dead code from coming back: every export of a
// non-main package must have a reader (see unreadExports) or an entry,
// with its reason, in the committed allowlist.txt.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: doclint <package-dir>...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	allow, err := parseAllowlist(allowlistText)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: allowlist: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := load(".", flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}
	bad := 0
	for _, p := range pkgs {
		bad += lintPkg(p)
	}
	unread := unreadExports(pkgs, allow)
	for _, line := range unread {
		fmt.Println(line)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d undocumented or misdocumented exported declarations\n", bad)
	}
	if len(unread) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d exports with no non-test reader and no allowlist entry\n", len(unread))
	}
	if bad > 0 || len(unread) > 0 {
		os.Exit(1)
	}
}

// expand resolves one argument to package directories: a plain
// directory maps to itself, and a `dir/...` pattern walks to every
// subdirectory containing Go files (skipping hidden and testdata
// directories, like the go tool).
func expand(arg string) ([]string, error) {
	root, rec := strings.CutSuffix(strings.TrimSuffix(arg, "/"), "/...")
	if !rec {
		return []string{root}, nil
	}
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		if strings.HasSuffix(path, ".go") && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}

// lintPkg checks every non-test Go file in one package directory and
// returns the violation count.
func lintPkg(p *pkg) int {
	bad := 0
	for _, pk := range p.pkgs {
		for path, file := range pk.Files {
			bad += lintFile(p.fset, filepath.ToSlash(path), file)
		}
		bad += lintDetectorDocs(p.fset, pk)
	}
	return bad
}

// detectorMethods is the detect.Detector contract: a type exposing all
// three is a detector implementation, whether or not its package
// imports the detect package.
var detectorMethods = []string{"ScoreAt", "Config", "Name"}

// lintDetectorDocs enforces the detector-package rule: every package
// declaring an exported type with the full ScoreAt/Config/Name method
// set must have a package-level doc comment.
func lintDetectorDocs(fset *token.FileSet, pkg *ast.Package) int {
	hasPkgDoc := false
	declared := map[string]token.Pos{} // exported types declared here
	methods := map[string]map[string]bool{}
	for _, file := range pkg.Files {
		if file.Doc != nil && strings.TrimSpace(file.Doc.Text()) != "" {
			hasPkgDoc = true
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				recv := receiverName(d.Recv)
				if recv == "" || !ast.IsExported(recv) {
					continue
				}
				if methods[recv] == nil {
					methods[recv] = map[string]bool{}
				}
				methods[recv][d.Name.Name] = true
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					if s, ok := spec.(*ast.TypeSpec); ok && ast.IsExported(s.Name.Name) {
						declared[s.Name.Name] = s.Pos()
					}
				}
			}
		}
	}
	if hasPkgDoc {
		return 0
	}
	bad := 0
	for name, pos := range declared {
		complete := true
		for _, m := range detectorMethods {
			if !methods[name][m] {
				complete = false
				break
			}
		}
		if complete {
			p := fset.Position(pos)
			fmt.Printf("%s:%d: package %s declares detector implementation %s but has no package doc comment\n",
				filepath.ToSlash(p.Filename), p.Line, pkg.Name, name)
			bad++
		}
	}
	return bad
}

// receiverName extracts the receiver's base type name from a method's
// receiver list, unwrapping pointers and type parameters.
func receiverName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// lintFile reports each exported declaration in one parsed file whose
// doc comment is missing or does not start with the declared name.
func lintFile(fset *token.FileSet, path string, file *ast.File) int {
	bad := 0
	report := func(pos token.Pos, kind, name, why string) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: exported %s %s %s\n", path, p.Line, kind, name, why)
		bad++
	}
	check := func(pos token.Pos, kind, name string, doc *ast.CommentGroup) {
		if !ast.IsExported(name) {
			return
		}
		if doc == nil || strings.TrimSpace(doc.Text()) == "" {
			report(pos, kind, name, "has no doc comment")
			return
		}
		first := strings.Fields(doc.Text())[0]
		// "A Foo ..." / "An Foo ..." / "The Foo ..." are accepted godoc
		// openers alongside the plain "Foo ...".
		words := strings.Fields(doc.Text())
		if first == "A" || first == "An" || first == "The" || first == "Deprecated:" {
			if len(words) > 1 {
				first = words[1]
			}
		}
		if strings.TrimRight(first, ".,:;") != name {
			report(pos, kind, name, fmt.Sprintf("doc comment starts %q, want the name %q", first, name))
		}
	}

	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			kind := "function"
			if d.Recv != nil {
				kind = "method"
				// Methods on unexported receivers (usually interface
				// plumbing like Error/Timeout) are not rendered by
				// godoc and need no comment.
				if !ast.IsExported(receiverName(d.Recv)) {
					continue
				}
			}
			check(d.Pos(), kind, d.Name.Name, d.Doc)
		case *ast.GenDecl:
			kind := map[token.Token]string{
				token.CONST: "const", token.VAR: "var", token.TYPE: "type",
			}[d.Tok]
			if kind == "" {
				continue // imports
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					doc := s.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					check(s.Pos(), kind, s.Name.Name, doc)
				case *ast.ValueSpec:
					// A group doc (`// Exit codes.` above `const (...)`)
					// or a per-spec doc both satisfy the convention for
					// value members; only fully undocumented exported
					// values are flagged.
					if s.Doc != nil || s.Comment != nil || d.Doc != nil {
						continue
					}
					for _, name := range s.Names {
						if ast.IsExported(name.Name) {
							report(name.Pos(), kind, name.Name, "has no doc comment")
						}
					}
				}
			}
		}
	}
	return bad
}
