// Command tracegen generates and inspects synthetic database traces
// calibrated to the real-life workload of the paper's section 4.6.
//
// Examples:
//
//	tracegen -out paper.trc                  # full calibrated trace
//	tracegen -out small.trc -txns 4000 -pages 20000
//	tracegen -inspect paper.trc              # print trace statistics
package main

import (
	"flag"
	"fmt"
	"os"

	"gemsim/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		out     = fs.String("out", "", "output trace file")
		inspect = fs.String("inspect", "", "trace file to summarize")
		seed    = fs.Int64("seed", 1, "random seed")
		txns    = fs.Int("txns", 0, "number of transactions (default 17520)")
		types   = fs.Int("types", 0, "number of transaction types (default 12)")
		files   = fs.Int("files", 0, "number of database files (default 13)")
		pages   = fs.Int("pages", 0, "referenced page universe (default 66000)")
		refs    = fs.Float64("meanrefs", 0, "mean references per transaction (default 57)")
		asText  = fs.Bool("text", false, "write/read the human-editable text format")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *inspect != "" {
		trace, err := readTrace(*inspect, *asText)
		if err != nil {
			return err
		}
		printStats(trace)
		return nil
	}
	if *out == "" {
		fs.Usage()
		return fmt.Errorf("pass -out FILE to generate or -inspect FILE to summarize")
	}

	params := workload.DefaultTraceGenParams(*seed)
	def := params
	// A smaller trace keeps the calibrated trace's shape: its ad-hoc
	// scans (8 in 17520 transactions, at least one) scale with the
	// transaction count, and its largest scan (11200 references over
	// 66000 pages) with the page universe.
	if *txns > 0 {
		params.Transactions = *txns
		params.AdHocTxns = max(1, def.AdHocTxns*(*txns)/def.Transactions)
	}
	if *types > 0 {
		params.Types = *types
	}
	if *files > 0 {
		params.Files = *files
	}
	if *pages > 0 {
		params.TotalPages = *pages
		params.LargestRefs = def.LargestRefs * (*pages) / def.TotalPages
	}
	if *refs > 0 {
		params.MeanRefs = *refs
	}
	trace, err := workload.GenerateTrace(params)
	if err != nil {
		return err
	}
	if err := writeTrace(trace, *out, *asText); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	printStats(trace)
	return nil
}

func readTrace(path string, asText bool) (*workload.Trace, error) {
	if !asText {
		return workload.ReadTraceFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.ReadTextTrace(f)
}

func writeTrace(trace *workload.Trace, path string, asText bool) error {
	if !asText {
		return trace.WriteFile(path)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteText(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func printStats(trace *workload.Trace) {
	s := trace.Stats()
	fmt.Printf("transactions        %d (%d types)\n", s.Transactions, s.Types)
	fmt.Printf("files               %d\n", s.Files)
	fmt.Printf("references          %d (mean %.1f per txn, largest txn %d)\n", s.References, s.MeanRefs, s.LargestTxn)
	fmt.Printf("distinct pages      %d\n", s.DistinctPages)
	fmt.Printf("writes              %d (%.2f%% of references)\n", s.Writes, 100*float64(s.Writes)/float64(s.References))
	fmt.Printf("update transactions %d (%.1f%%)\n", s.UpdateTxns, 100*float64(s.UpdateTxns)/float64(s.Transactions))
}
