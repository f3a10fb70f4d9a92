package workload

import (
	"fmt"
	"math"

	"gemsim/internal/model"
	"gemsim/internal/rng"
)

// TraceGenParams configures the synthetic trace generator. The defaults
// are calibrated to every statistic the paper publishes about its
// real-life trace: more than 17,500 transactions of twelve types, about
// one million page references, roughly 66,000 referenced pages in 13
// files, a largest (ad-hoc query) transaction above 11,000 references,
// about 20% update transactions, 1.6% write references, and a highly
// non-uniform reference distribution even within transaction types.
type TraceGenParams struct {
	// Seed drives all random choices; identical parameters always
	// produce identical traces.
	Seed int64
	// Transactions is the number of transactions to generate.
	Transactions int
	// Types is the number of transaction types (the last type is the
	// ad-hoc query type).
	Types int
	// Files is the number of database files.
	Files int
	// TotalPages is the size of the referenced page universe over all
	// files.
	TotalPages int
	// MeanRefs is the target mean number of references per
	// transaction.
	MeanRefs float64
	// WriteFrac is the target fraction of write references.
	WriteFrac float64
	// UpdateTxFrac is the target fraction of update transactions.
	UpdateTxFrac float64
	// AdHocTxns is the number of ad-hoc query transactions; the
	// largest performs LargestRefs references.
	AdHocTxns int
	// LargestRefs is the reference count of the single largest
	// transaction.
	LargestRefs int
	// Skew is the Zipf skew (theta) of the page access distribution
	// within a file.
	Skew float64
}

// DefaultTraceGenParams returns parameters calibrated to the paper's
// trace statistics.
func DefaultTraceGenParams(seed int64) TraceGenParams {
	return TraceGenParams{
		Seed:         seed,
		Transactions: 17520,
		Types:        12,
		Files:        13,
		TotalPages:   66000,
		MeanRefs:     57,
		WriteFrac:    0.016,
		UpdateTxFrac: 0.20,
		AdHocTxns:    8,
		LargestRefs:  11200,
		Skew:         0.9,
	}
}

// minFilePages is the smallest file GenerateTrace makes.
const minFilePages = 64

// GenerateTrace synthesizes a trace with the given parameters.
func GenerateTrace(params TraceGenParams) (*Trace, error) {
	// The scanFiles largest files take the ad-hoc scans and no updates
	// (see pickWritePage), so a trace needs at least one file more.
	const scanFiles = 3
	if params.Transactions <= 0 || params.Types < 2 || params.Files <= scanFiles {
		return nil, fmt.Errorf("workload: invalid trace parameters %+v", params)
	}
	if params.TotalPages < minFilePages*params.Files {
		return nil, fmt.Errorf("workload: %d pages cannot give %d files %d pages each", params.TotalPages, params.Files, minFilePages)
	}
	if params.AdHocTxns >= params.Transactions {
		return nil, fmt.Errorf("workload: %d ad-hoc txns exceed %d transactions", params.AdHocTxns, params.Transactions)
	}
	split := rng.NewSplitter(params.Seed)
	src := split.Stream("tracegen")

	// File sizes: skewed (a few large table spaces, many small files),
	// summing to TotalPages.
	files := make([]model.File, params.Files)
	weights := make([]float64, params.Files)
	var wsum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 0.9)
		wsum += weights[i]
	}
	remaining := params.TotalPages
	for i := range files {
		pages := int(float64(params.TotalPages) * weights[i] / wsum)
		if pages < minFilePages {
			pages = minFilePages
		}
		if i == len(files)-1 || pages > remaining {
			pages = remaining
		}
		remaining -= pages
		files[i] = model.File{
			ID:             model.FileID(i),
			Name:           fmt.Sprintf("FILE%02d", i),
			Pages:          int32(pages),
			BlockingFactor: 10,
			Locking:        true,
			Medium:         model.MediumDisk,
		}
	}

	// Per-file Zipf samplers for the non-uniform reference
	// distribution. Reads draw from the first 80% of each file; the
	// last 20% is the update region written (but practically never
	// read) by update transactions. The separation reproduces the
	// paper's observation that lock conflicts and buffer
	// invalidations had no significant impact for the real-life
	// trace: under strict two-phase locking, writes into read-hot
	// pages would otherwise convoy readers behind queued writers for
	// the duration of the largest transactions.
	readPages := make([]int32, params.Files)
	zipfs := make([]*rng.Zipf, params.Files)
	for i := range zipfs {
		readPages[i] = files[i].Pages * 4 / 5
		if readPages[i] < 1 {
			readPages[i] = files[i].Pages
		}
		zipfs[i] = rng.NewZipf(split.Stream(fmt.Sprintf("zipf%d", i)), int64(readPages[i]), params.Skew)
	}

	// Transaction type profiles: popularity, mean size and a file
	// affinity mix (three home files plus background access over all
	// files). Neighbouring types overlap in their home files, which
	// limits the partitionability of the workload as observed for the
	// real trace.
	normalTypes := params.Types - 1
	popularity := make([]float64, normalTypes)
	rawMean := make([]float64, normalTypes)
	var popSum, weightedMean float64
	for i := 0; i < normalTypes; i++ {
		popularity[i] = math.Pow(0.72, float64(i))
		rawMean[i] = 6 * math.Pow(1.55, float64(i%7))
		popSum += popularity[i]
	}
	for i := 0; i < normalTypes; i++ {
		weightedMean += popularity[i] / popSum * rawMean[i]
	}
	// Scale type means so the overall mean matches MeanRefs after
	// accounting for the ad-hoc reference volume.
	// Ad-hoc query sizes: evenly spaced up to LargestRefs so exactly
	// one transaction reaches the published maximum.
	adHocRefs := 0
	adHocSizes := make([]int, params.AdHocTxns)
	for i := range adHocSizes {
		sz := params.LargestRefs * (i + 1) / params.AdHocTxns
		if sz < 100 {
			sz = 100
		}
		adHocSizes[i] = sz
		adHocRefs += sz
	}
	normalCount := params.Transactions - params.AdHocTxns
	targetNormalRefs := params.MeanRefs*float64(params.Transactions) - float64(adHocRefs)
	scale := targetNormalRefs / (float64(normalCount) * weightedMean)
	for i := range rawMean {
		rawMean[i] *= scale
		if rawMean[i] < 2 {
			rawMean[i] = 2
		}
	}

	homeFiles := make([][3]int, params.Types)
	for i := range homeFiles {
		homeFiles[i] = [3]int{i % params.Files, (i + 1) % params.Files, (i*3 + 5) % params.Files}
	}

	writeProb := 0.0
	if params.UpdateTxFrac > 0 {
		writeProb = params.WriteFrac / params.UpdateTxFrac
	}

	pickFile := func(typ int) int {
		r := src.Float64()
		switch {
		case r < 0.50:
			return homeFiles[typ][0]
		case r < 0.80:
			return homeFiles[typ][1]
		case r < 0.92:
			return homeFiles[typ][2]
		default:
			return src.Intn(params.Files)
		}
	}
	// Reads follow the skewed (Zipf) distribution; writes go to
	// uniformly drawn pages of the file. This matches the paper's
	// observation that lock conflicts and buffer invalidations were
	// insignificant for the real-life trace: the read-hot pages
	// (indexes, catalogs) are rarely updated, while updates touch
	// individual data rows.
	pickPage := func(typ int) model.PageID {
		fi := pickFile(typ)
		return model.PageID{File: model.FileID(fi), Page: int32(zipfs[fi].Next())}
	}
	// The three largest files are the query/archive table spaces that
	// the long ad-hoc scans read; updates go to the remaining files
	// only. Without this separation a single 11,000-page scan would
	// stall every writer for its full duration under strict two-phase
	// page locking — the paper reports that lock conflicts were
	// insignificant for its trace, so its query targets cannot have
	// been update-hot.
	pickWritePage := func(typ int) model.PageID {
		fi := pickFile(typ)
		if fi < scanFiles {
			fi = scanFiles + (fi+typ)%(params.Files-scanFiles)
		}
		lo := readPages[fi]
		span := files[fi].Pages - lo
		if span <= 0 {
			lo, span = 0, files[fi].Pages
		}
		return model.PageID{File: model.FileID(fi), Page: lo + int32(src.Int63n(int64(span)))}
	}

	trace := &Trace{Types: params.Types, Files: files}
	trace.Txns = make([]model.Txn, 0, params.Transactions)

	// Ad-hoc queries: read-only sequential scans with a random start
	// offset over one of the large files, plus a small random tail.
	adHocType := params.Types - 1
	for i := 0; i < params.AdHocTxns; i++ {
		fi := i % scanFiles // scan one of the large query table spaces
		f := &files[fi]
		start := src.Intn(int(f.Pages))
		size := adHocSizes[i]
		refs := make([]model.Ref, 0, size)
		seq := int(float64(size) * 0.9)
		for j := 0; j < seq; j++ {
			page := int32((start + j) % int(f.Pages))
			refs = append(refs, model.Ref{Page: model.PageID{File: f.ID, Page: page}})
		}
		for len(refs) < size {
			// The non-sequential tail of a scan also reads cold pages.
			refs = append(refs, model.Ref{Page: model.PageID{
				File: f.ID, Page: int32(src.Intn(int(f.Pages))),
			}})
		}
		trace.Txns = append(trace.Txns, model.Txn{Type: adHocType, Refs: refs})
	}

	// Regular transactions. Write references are placed at the end of
	// the transaction — the same discipline the paper applies to the
	// debit-credit workload ("accessed last to keep lock holding times
	// as short as possible"); with exclusive locks held only across
	// commit processing, the trace reproduces the paper's observation
	// that lock conflicts were insignificant.
	for i := 0; i < normalCount; i++ {
		typ := src.Discrete(popularity)
		size := 1 + int(src.Exp(rawMean[typ]-1))
		update := src.Bool(params.UpdateTxFrac)
		refs := make([]model.Ref, 0, size)
		var writes []model.Ref
		for j := 0; j < size; j++ {
			if update && src.Bool(writeProb) {
				writes = append(writes, model.Ref{Page: pickWritePage(typ), Write: true})
				continue
			}
			refs = append(refs, model.Ref{Page: pickPage(typ)})
		}
		if update && len(writes) == 0 {
			writes = append(writes, model.Ref{Page: pickWritePage(typ), Write: true})
			if len(refs) > 1 {
				refs = refs[:len(refs)-1]
			}
		}
		refs = append(refs, writes...)
		trace.Txns = append(trace.Txns, model.Txn{Type: typ, Refs: refs})
	}

	// Interleave ad-hoc queries into the body of the trace rather than
	// leaving them at the front.
	perm := split.Stream("perm").Perm(len(trace.Txns))
	shuffled := make([]model.Txn, len(trace.Txns))
	for i, j := range perm {
		shuffled[j] = trace.Txns[i]
	}
	trace.Txns = shuffled

	if err := trace.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated trace invalid: %w", err)
	}
	return trace, nil
}
