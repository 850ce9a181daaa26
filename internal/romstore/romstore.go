// Package romstore is the disk-persistent, fingerprint-keyed reduced-model
// cache behind the in-memory ROM LRU: the piece that lets a verification
// daemon (or a re-run CLI) serve a chip's thousandth repair iteration
// without re-reducing a single unchanged cluster.
//
// Durability contract:
//
//   - Writes are crash-safe: an entry is serialized to a temp file in the
//     store directory, synced, and atomically renamed into place. A crash
//     mid-write leaves at worst a stray temp file, never a torn entry.
//   - Loads are defensive: every entry carries a magic, a format version,
//     the writing go runtime version, the full fingerprint key, and a CRC32
//     over everything. A truncated, bit-flipped, or wrong-version entry —
//     or any file the decoder cannot fully validate — is discarded (the
//     file is removed) and the model recomputed. Corruption is counted
//     (Stats.CorruptDiscarded, surfaced as cache_corrupt_discarded in obs),
//     never trusted, and never fatal.
//   - Saves are best-effort: a full disk or a permission error costs the
//     cache entry, not the verification (Stats.WriteErrors).
//
// Keys are the full prune.Fingerprint bytes. Filenames are the SHA-256 of
// the key, but the key itself is stored and compared on load, so a hash
// collision degrades to a recompute instead of returning a wrong model.
// Models round-trip bit-exactly (float64 payloads are stored as raw IEEE
// bits), which is what keeps warm-cache reports byte-identical to cold ones.
package romstore

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"xtverify/internal/faultinject"
	"xtverify/internal/sympvl"
)

// Store is a disk-backed model cache rooted at one directory. It is safe
// for concurrent use: entries are immutable once renamed into place, and
// concurrent saves of the same key atomically race to an identical result.
type Store struct {
	dir string
	// goVersion is folded into every entry; entries written by a different
	// runtime are discarded on load (float behavior and the codec's host
	// assumptions are only guaranteed within one toolchain).
	goVersion string

	hits             atomic.Uint64
	misses           atomic.Uint64
	corruptDiscarded atomic.Uint64
	writes           atomic.Uint64
	writeErrors      atomic.Uint64
	loadErrors       atomic.Uint64
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Hits counts loads served from a fully validated entry.
	Hits uint64
	// Misses counts loads that found no entry (absent file).
	Misses uint64
	// CorruptDiscarded counts entries that failed validation — truncation,
	// bit flips, bad CRC, wrong format or go version, key mismatch — and
	// were removed so the model gets recomputed.
	CorruptDiscarded uint64
	// Writes counts entries durably renamed into place.
	Writes uint64
	// WriteErrors counts best-effort saves that failed (disk full,
	// permissions, injected faults). Never fatal.
	WriteErrors uint64
	// LoadErrors counts reads that failed for I/O reasons other than
	// absence or corruption (injected faults, permission errors); they are
	// treated as misses.
	LoadErrors uint64
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, goVersion: runtime.Version()}, nil
}

// Stats returns the cumulative counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:             s.hits.Load(),
		Misses:           s.misses.Load(),
		CorruptDiscarded: s.corruptDiscarded.Load(),
		Writes:           s.writes.Load(),
		WriteErrors:      s.writeErrors.Load(),
		LoadErrors:       s.loadErrors.Load(),
	}
}

// Len counts the model entries currently on disk (directory scan;
// diagnostics only).
func (s *Store) Len() int {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == modelEntry.ext {
			n++
		}
	}
	return n
}

// Load returns the stored model for key, or (nil, false). It never returns
// a model it could not fully validate: any corruption discards the entry
// (removing the file) and reports a miss, so the caller recomputes.
// Load implements glitch.Backing.
func (s *Store) Load(key string) (*sympvl.Model, bool) { return modelEntry.load(s, key) }

// Save persists m under key, best-effort and crash-safe (temp file + fsync +
// atomic rename). Failures are counted, never surfaced: losing a cache write
// must not fail a verification. Save implements glitch.Backing.
func (s *Store) Save(key string, m *sympvl.Model) { modelEntry.save(s, key, m) }

// path maps a key onto its entry file. The file name is the SHA-256 of the
// key; the extension keeps the kinds' key spaces disjoint, so a fingerprint
// may own both a .rom and several .prep entries.
func (k entryKind[T]) path(s *Store, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+k.ext)
}

// load reads and fully validates the entry for key. An absent file is a
// miss; corruption removes the file and counts as discarded; any other read
// failure counts as a load error. All three report (zero, false).
func (k entryKind[T]) load(s *Store, key string) (T, bool) {
	var zero T
	path := k.path(s, key)
	if err := faultinject.FireStore("load", path); err != nil {
		s.loadErrors.Add(1)
		return zero, false
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
		} else {
			s.loadErrors.Add(1)
		}
		return zero, false
	}
	v, err := k.decodeEntry(raw, key, s.goVersion)
	if err != nil {
		// Truncated, bit-flipped, wrong version, or otherwise invalid:
		// discard so the recomputed value can replace it cleanly.
		s.corruptDiscarded.Add(1)
		_ = os.Remove(path)
		return zero, false
	}
	s.hits.Add(1)
	return v, true
}

// save writes v under key through a synced temp file renamed into place.
// Failures are counted in WriteErrors and otherwise ignored.
func (k entryKind[T]) save(s *Store, key string, v T) {
	path := k.path(s, key)
	if err := faultinject.FireStore("save", path); err != nil {
		s.writeErrors.Add(1)
		return
	}
	raw := k.encodeEntry(key, s.goVersion, v)
	tmp, err := os.CreateTemp(s.dir, k.tmpPattern)
	if err != nil {
		s.writeErrors.Add(1)
		return
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(raw)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		s.writeErrors.Add(1)
		_ = os.Remove(tmpName)
		return
	}
	s.writes.Add(1)
}
