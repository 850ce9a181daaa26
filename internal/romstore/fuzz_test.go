package romstore

import (
	"os"
	"testing"
)

// FuzzDecodeEntry is the durability fuzz gate: arbitrary bytes fed to the
// entry decoder must yield "discard and recompute" — a non-nil error with a
// nil model — or a fully validated model, and must never panic. The seeds
// include a valid entry so the fuzzer mutates from real structure.
func FuzzDecodeEntry(f *testing.F) {
	valid := modelEntry.encodeEntry("seed-key", "go-fuzz-version", testModel())
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte{})
	f.Add([]byte("XTROMS1\n"))
	f.Add(append(append([]byte{}, valid...), 0))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := modelEntry.decodeEntry(raw, "seed-key", "go-fuzz-version")
		if (m == nil) == (err == nil) {
			t.Fatalf("decode invariant broken: model %v err %v", m, err)
		}
		if m != nil {
			// Anything the decoder accepts must be structurally coherent —
			// the engine will use these dims without re-checking.
			if m.Order <= 0 || m.Ports <= 0 ||
				m.T.Rows() != m.Order || m.T.Cols() != m.Order ||
				m.Rho.Rows() != m.Order || m.Rho.Cols() != m.Ports ||
				len(m.PortNames) != m.Ports {
				t.Fatalf("decoder accepted incoherent model: %+v", m)
			}
		}
	})
}

// FuzzStoreLoad drives the same bytes through the full Store.Load path
// (file on disk included): the store must classify every mutation as hit,
// miss or corrupt-discard without ever panicking or returning a bad model.
func FuzzStoreLoad(f *testing.F) {
	key := "fuzz-key"
	f.Add(modelEntry.encodeEntry(key, "x", testModel()))
	f.Add([]byte("not an entry"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := modelEntry.path(s, key)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, ok := s.Load(key)
		if ok && m == nil {
			t.Fatal("Load reported ok with nil model")
		}
		if !ok {
			// A rejected entry must have been discarded so the slot is clean
			// for recompute.
			if _, err := os.Stat(path); err == nil {
				if st := s.Stats(); st.CorruptDiscarded > 0 {
					t.Fatal("corrupt entry counted but file not removed")
				}
			}
		}
	})
}
