package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/eval"
	"repro/internal/stats"
)

// csvDir is set by the -csv flag; empty disables CSV output.
var csvDir string

// writeCSV writes one CSV file into csvDir (no-op when disabled).
func writeCSV(name string, header []string, rows [][]string) error {
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(csvDir, name))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	err = w.Write(header)
	if err == nil {
		err = w.WriteAll(rows) // flushes
	}
	// A write-back failure (a full disk) can surface as late as Close.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", filepath.Join(csvDir, name))
	return nil
}

// table1CSV renders the accuracy results.
func table1CSV(results []*eval.Result) error {
	header := []string{"method", "kpi_type", "total", "precision", "recall", "tnr", "accuracy"}
	var rows [][]string
	for _, res := range results {
		for _, kt := range []stats.KPIType{stats.Seasonal, stats.Stationary, stats.Variable} {
			c := res.ByType[kt]
			rows = append(rows, []string{
				res.Method, kt.String(),
				strconv.FormatFloat(c.Total(), 'f', 0, 64),
				fmtRatio(c.Precision()), fmtRatio(c.Recall()),
				fmtRatio(c.TNR()), fmtRatio(c.Accuracy()),
			})
		}
	}
	return writeCSV("table1.csv", header, rows)
}

// fig5CSV renders the delay CCDF points.
func fig5CSV(results []*eval.Result) error {
	header := []string{"method", "delay_minutes", "ccdf"}
	var rows [][]string
	for _, res := range results {
		for _, pt := range res.DelayCCDF() {
			rows = append(rows, []string{
				res.Method,
				strconv.FormatFloat(pt.X, 'f', 0, 64),
				strconv.FormatFloat(pt.P, 'f', 4, 64),
			})
		}
	}
	return writeCSV("fig5_ccdf.csv", header, rows)
}

// fmtRatio prints a metric with four decimals, empty for NaN.
func fmtRatio(v float64) string {
	if v != v {
		return ""
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}
