// Package model defines the static database model shared by all
// simulator components: files (partitions), pages, record blocking
// factors, storage media and lock modes. It is pure data with no
// dependency on the simulation kernel.
package model

import "fmt"

// FileID identifies a database file (partition).
type FileID int32

// PageID identifies one page within a file.
type PageID struct {
	File FileID
	Page int32
}

// String formats a page id as file:page.
func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.File, p.Page) }

// Key packs a page id into one integer (file, then page), a hash key.
func (p PageID) Key() uint64 { return uint64(uint32(p.File))<<32 | uint64(uint32(p.Page)) }

// Medium is the storage medium a file is allocated to.
type Medium int

const (
	// MediumDisk is a conventional magnetic disk group.
	MediumDisk Medium = iota + 1
	// MediumDiskCacheVolatile is a disk group with a volatile shared
	// disk cache (read hits avoid the disk).
	MediumDiskCacheVolatile
	// MediumDiskCacheNV is a disk group with a non-volatile shared
	// disk cache (reads and writes avoid the disk; asynchronous
	// destage).
	MediumDiskCacheNV
	// MediumGEM keeps the file resident in Global Extended Memory.
	MediumGEM
	// MediumGEMWriteBuffer keeps the file on disk but absorbs all
	// writes in a small non-volatile GEM write buffer; the disk copy
	// is updated asynchronously (section 2 of the paper: "a modified
	// page is written to the write buffer at first, while the disk
	// copy is updated asynchronously").
	MediumGEMWriteBuffer
	// MediumGEMCache keeps the file on disk behind an LRU page cache
	// in non-volatile GEM — the paper's third extended memory usage
	// form ("caching database pages at an intermediate storage level
	// to reduce the number of disk reads"), with 50 µs hits instead of
	// the 1.4 ms of a disk cache.
	MediumGEMCache
)

// String returns a short label for the medium.
func (m Medium) String() string {
	switch m {
	case MediumDisk:
		return "disk"
	case MediumDiskCacheVolatile:
		return "disk+vcache"
	case MediumDiskCacheNV:
		return "disk+nvcache"
	case MediumGEM:
		return "GEM"
	case MediumGEMWriteBuffer:
		return "disk+GEMwb"
	case MediumGEMCache:
		return "disk+GEMcache"
	default:
		return fmt.Sprintf("medium(%d)", int(m))
	}
}

// File describes one database file (partition).
type File struct {
	ID             FileID
	Name           string
	Pages          int32 // number of pages (0 for append-only files)
	BlockingFactor int   // records per page
	Locking        bool  // whether page locks are acquired
	AppendOnly     bool  // sequential insert file (HISTORY)
	Medium         Medium
}

// Database is an ordered collection of files.
type Database struct {
	Files []File
}

// File returns the file with the given id, or nil.
func (d *Database) File(id FileID) *File {
	if i := d.FileIndex(id); i >= 0 {
		return &d.Files[i]
	}
	return nil
}

// FileIndex returns the position in Files of the file with the given
// id, or -1.
func (d *Database) FileIndex(id FileID) int {
	for i := range d.Files {
		if d.Files[i].ID == id {
			return i
		}
	}
	return -1
}

// FileByName returns the file with the given name, or nil.
func (d *Database) FileByName(name string) *File {
	for i := range d.Files {
		if d.Files[i].Name == name {
			return &d.Files[i]
		}
	}
	return nil
}

// Validate checks structural consistency of the database description.
func (d *Database) Validate() error {
	seen := make(map[FileID]bool, len(d.Files))
	names := make(map[string]bool, len(d.Files))
	for i := range d.Files {
		f := &d.Files[i]
		if seen[f.ID] {
			return fmt.Errorf("model: duplicate file id %d", f.ID)
		}
		seen[f.ID] = true
		if f.Name == "" {
			return fmt.Errorf("model: file %d has no name", f.ID)
		}
		if names[f.Name] {
			return fmt.Errorf("model: duplicate file name %q", f.Name)
		}
		names[f.Name] = true
		if f.BlockingFactor <= 0 {
			return fmt.Errorf("model: file %q has blocking factor %d", f.Name, f.BlockingFactor)
		}
		if f.Pages < 0 {
			return fmt.Errorf("model: file %q has negative page count", f.Name)
		}
		if !f.AppendOnly && f.Pages == 0 {
			return fmt.Errorf("model: file %q has no pages and is not append-only", f.Name)
		}
		switch f.Medium {
		case MediumDisk, MediumDiskCacheVolatile, MediumDiskCacheNV, MediumGEM,
			MediumGEMWriteBuffer, MediumGEMCache:
		default:
			return fmt.Errorf("model: file %q has invalid medium", f.Name)
		}
	}
	return nil
}

// LockMode is the access mode of a page lock.
type LockMode uint8

const (
	// LockRead is a shared lock.
	LockRead LockMode = iota + 1
	// LockWrite is an exclusive lock.
	LockWrite
)

// Compatible reports whether a lock in mode m can be granted alongside
// an existing lock in mode held.
func (m LockMode) Compatible(held LockMode) bool {
	return m == LockRead && held == LockRead
}

// String returns "R" or "W".
func (m LockMode) String() string {
	if m == LockRead {
		return "R"
	}
	return "W"
}

// Ref is one record access of a transaction: the page it touches and
// whether it modifies the record. Append-only file references carry a
// negative page number; the executing node substitutes its current
// insert page.
type Ref struct {
	Page  PageID
	Write bool
}

// Txn is one transaction of the workload: an ordered list of record
// accesses. Type and Branch carry routing information (transaction type
// for traces, branch number for debit-credit).
type Txn struct {
	Type   int
	Branch int
	Refs   []Ref
}

// IsUpdate reports whether the transaction writes at all.
func (t *Txn) IsUpdate() bool {
	for _, r := range t.Refs {
		if r.Write {
			return true
		}
	}
	return false
}

// AppendPage is the sentinel page number in Refs for append-only files.
const AppendPage int32 = -1
