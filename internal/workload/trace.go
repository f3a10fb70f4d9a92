package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"gemsim/internal/model"
	"gemsim/internal/rng"
)

// Trace is a recorded (or synthesized) transaction load: for every
// transaction its type and all page references with their access mode,
// as in the paper's trace-driven simulations.
type Trace struct {
	// Types is the number of transaction types occurring in the trace.
	Types int
	// Files describes the referenced database files.
	Files []model.File
	// Txns are the transactions in original execution order.
	Txns []model.Txn
}

// Database returns the database referenced by the trace.
func (t *Trace) Database() *model.Database { return &model.Database{Files: t.Files} }

// Stats summarizes a trace.
type TraceStats struct {
	Transactions  int
	Types         int
	Files         int
	References    int64
	Writes        int64
	UpdateTxns    int
	LargestTxn    int
	DistinctPages int
	MeanRefs      float64
}

// Stats computes summary statistics over the trace.
func (t *Trace) Stats() TraceStats {
	s := TraceStats{Transactions: len(t.Txns), Types: t.Types, Files: len(t.Files)}
	distinct := make(map[model.PageID]bool)
	for i := range t.Txns {
		tx := &t.Txns[i]
		if len(tx.Refs) > s.LargestTxn {
			s.LargestTxn = len(tx.Refs)
		}
		update := false
		for _, r := range tx.Refs {
			s.References++
			if r.Write {
				s.Writes++
				update = true
			}
			distinct[r.Page] = true
		}
		if update {
			s.UpdateTxns++
		}
	}
	s.DistinctPages = len(distinct)
	if s.Transactions > 0 {
		s.MeanRefs = float64(s.References) / float64(s.Transactions)
	}
	return s
}

// Validate checks referential consistency of the trace.
func (t *Trace) Validate() error {
	db := t.Database()
	if err := db.Validate(); err != nil {
		return err
	}
	for i := range t.Txns {
		tx := &t.Txns[i]
		if tx.Type < 0 || tx.Type >= t.Types {
			return fmt.Errorf("workload: txn %d has type %d outside [0,%d)", i, tx.Type, t.Types)
		}
		for _, r := range tx.Refs {
			f := db.File(r.Page.File)
			if f == nil {
				return fmt.Errorf("workload: txn %d references unknown file %d", i, r.Page.File)
			}
			if !f.AppendOnly && (r.Page.Page < 0 || r.Page.Page >= f.Pages) {
				return fmt.Errorf("workload: txn %d references page %v outside file %q", i, r.Page, f.Name)
			}
		}
	}
	return nil
}

// TraceReplayer feeds trace transactions to the simulator in original
// order, wrapping around when the trace is exhausted so that open-system
// steady state measurements of arbitrary length are possible.
type TraceReplayer struct {
	trace *Trace
	next  int
}

var _ Generator = (*TraceReplayer)(nil)

// NewTraceReplayer creates a replayer over the trace.
func NewTraceReplayer(t *Trace) *TraceReplayer { return &TraceReplayer{trace: t} }

// Database returns the trace's database description.
func (r *TraceReplayer) Database() *model.Database { return r.trace.Database() }

// Next returns the next transaction, wrapping at the trace end.
func (r *TraceReplayer) Next(_ *rng.Source, _ time.Duration) model.Txn {
	tx := r.trace.Txns[r.next]
	r.next++
	if r.next == len(r.trace.Txns) {
		r.next = 0
	}
	return tx
}

const traceMagic = "GEMTRC1\n"

// Write serializes the trace in the compact binary trace format.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	writeUvarint(bw, uint64(t.Types))
	writeUvarint(bw, uint64(len(t.Files)))
	for i := range t.Files {
		f := &t.Files[i]
		writeUvarint(bw, uint64(f.ID))
		writeString(bw, f.Name)
		writeUvarint(bw, uint64(f.Pages))
		writeUvarint(bw, uint64(f.BlockingFactor))
		flags := byte(0)
		if f.Locking {
			flags |= 1
		}
		if f.AppendOnly {
			flags |= 2
		}
		_ = bw.WriteByte(flags)
		writeUvarint(bw, uint64(f.Medium))
	}
	writeUvarint(bw, uint64(len(t.Txns)))
	for i := range t.Txns {
		tx := &t.Txns[i]
		writeUvarint(bw, uint64(tx.Type))
		writeUvarint(bw, uint64(len(tx.Refs)))
		for _, r := range tx.Refs {
			writeUvarint(bw, uint64(r.Page.File))
			writeUvarint(bw, uint64(int64(r.Page.Page)+1)) // shift so AppendPage(-1) encodes as 0
			mode := byte(0)
			if r.Write {
				mode = 1
			}
			_ = bw.WriteByte(mode)
		}
	}
	return bw.Flush()
}

// maxPrealloc caps the slice capacity ReadTrace reserves for a count
// read from its input: the slices grow as their elements are read, so
// a short input cannot demand a huge allocation.
const maxPrealloc = 1024

// ReadTrace parses a trace in the binary trace format.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("workload: read trace header: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("workload: bad trace magic %q", magic)
	}
	t := &Trace{}
	types, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	t.Types = int(types)
	nf, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	t.Files = make([]model.File, 0, min(nf, maxPrealloc))
	for range nf {
		t.Files = append(t.Files, model.File{})
		f := &t.Files[len(t.Files)-1]
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		f.ID = model.FileID(id)
		if f.Name, err = readString(br); err != nil {
			return nil, err
		}
		pages, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		f.Pages = int32(pages)
		bf, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		f.BlockingFactor = int(bf)
		flags, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		f.Locking = flags&1 != 0
		f.AppendOnly = flags&2 != 0
		medium, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		f.Medium = model.Medium(medium)
	}
	nt, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	t.Txns = make([]model.Txn, 0, min(nt, maxPrealloc))
	for range nt {
		t.Txns = append(t.Txns, model.Txn{})
		tx := &t.Txns[len(t.Txns)-1]
		typ, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		tx.Type = int(typ)
		nr, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		tx.Refs = make([]model.Ref, 0, min(nr, maxPrealloc))
		for range nr {
			file, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			page, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			mode, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			tx.Refs = append(tx.Refs, model.Ref{
				Page:  model.PageID{File: model.FileID(file), Page: int32(int64(page) - 1)},
				Write: mode == 1,
			})
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteFile saves the trace to a file path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// ReadTraceFile loads a trace from a file path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, _ = w.Write(buf[:n])
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	_, _ = w.WriteString(s)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("workload: unreasonable string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
