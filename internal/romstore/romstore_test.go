package romstore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"xtverify/internal/faultinject"
	"xtverify/internal/matrix"
	"xtverify/internal/sympvl"
)

// testModel builds a small model with awkward float values (NaN, -0, tiny
// denormal) so the roundtrip assertions cover bit-exactness, not just
// approximate equality.
func testModel() *sympvl.Model {
	t := matrix.NewDenseFromRows([][]float64{
		{1.5, math.Copysign(0, -1), 3e-310},
		{-2.25, math.NaN(), 1e18},
		{0.1, 7, math.Inf(1)},
	})
	rho := matrix.NewDenseFromRows([][]float64{
		{0.5, -1.25},
		{2.5, 1e-300},
		{-3.5, 0},
	})
	return &sympvl.Model{
		T:               t,
		Rho:             rho,
		Order:           3,
		Ports:           2,
		PortNames:       []string{"drv:n1", "rcv:n2"},
		BlockIterations: 4,
		Deflated:        1,
		Exhausted:       true,
	}
}

// sameModel compares every persistent field bit-for-bit.
func sameModel(t *testing.T, got, want *sympvl.Model) {
	t.Helper()
	if got.Order != want.Order || got.Ports != want.Ports ||
		got.BlockIterations != want.BlockIterations ||
		got.Deflated != want.Deflated || got.Exhausted != want.Exhausted {
		t.Fatalf("scalar fields differ: got %+v want %+v", got, want)
	}
	if len(got.PortNames) != len(want.PortNames) {
		t.Fatalf("port names %v want %v", got.PortNames, want.PortNames)
	}
	for i := range want.PortNames {
		if got.PortNames[i] != want.PortNames[i] {
			t.Fatalf("port name %d: %q want %q", i, got.PortNames[i], want.PortNames[i])
		}
	}
	for _, pair := range []struct {
		name string
		g, w *matrix.Dense
	}{{"T", got.T, want.T}, {"Rho", got.Rho, want.Rho}} {
		if pair.g.Rows() != pair.w.Rows() || pair.g.Cols() != pair.w.Cols() {
			t.Fatalf("%s dims %dx%d want %dx%d", pair.name, pair.g.Rows(), pair.g.Cols(), pair.w.Rows(), pair.w.Cols())
		}
		for i := 0; i < pair.w.Rows(); i++ {
			for j := 0; j < pair.w.Cols(); j++ {
				if math.Float64bits(pair.g.At(i, j)) != math.Float64bits(pair.w.At(i, j)) {
					t.Fatalf("%s[%d,%d] = %x want %x (bit-exact)", pair.name, i, j,
						math.Float64bits(pair.g.At(i, j)), math.Float64bits(pair.w.At(i, j)))
				}
			}
		}
	}
}

func TestRoundTripBitExact(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testModel()
	key := "fingerprint-bytes-\x00\x01\xff"
	if _, ok := s.Load(key); ok {
		t.Fatal("load before save hit")
	}
	s.Save(key, want)
	got, ok := s.Load(key)
	if !ok {
		t.Fatal("load after save missed")
	}
	sameModel(t, got, want)
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.CorruptDiscarded != 0 {
		t.Errorf("stats %+v, want 1 hit / 1 miss / 1 write / 0 corrupt", st)
	}
	if s.Len() != 1 {
		t.Errorf("Len() = %d, want 1", s.Len())
	}
}

// TestCorruptionDiscarded is the durability acceptance matrix: truncated,
// bit-flipped, wrong-format-version, wrong-go-version and key-collision
// entries must all be discarded (file removed, CorruptDiscarded counted)
// and reported as misses — never trusted, never fatal.
func TestCorruptionDiscarded(t *testing.T) {
	key := "the-key"
	valid := modelEntry.encodeEntry(key, "go-test-version", testModel())

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s.goVersion = "go-test-version"
			path := modelEntry.path(s, key)
			raw := mutate(append([]byte(nil), valid...))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if m, ok := s.Load(key); ok {
				t.Fatalf("corrupted entry loaded: %+v", m)
			}
			if got := s.Stats().CorruptDiscarded; got != 1 {
				t.Errorf("CorruptDiscarded = %d, want 1", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupted entry not removed (stat err %v)", err)
			}
			// The discard must degrade to recompute: a fresh save then loads.
			s.Save(key, testModel())
			if _, ok := s.Load(key); !ok {
				t.Error("save after discard did not load")
			}
		})
	}

	corrupt("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("empty", func(b []byte) []byte { return nil })
	corrupt("bit-flip-payload", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })
	corrupt("bit-flip-magic", func(b []byte) []byte { b[0] ^= 0x01; return b })
	corrupt("trailing-garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) })
	corrupt("wrong-go-version", func(b []byte) []byte {
		return modelEntry.encodeEntry(key, "go-other-version", testModel())
	})
	corrupt("wrong-key", func(b []byte) []byte {
		return modelEntry.encodeEntry("some-other-key", "go-test-version", testModel())
	})
	corrupt("wrong-format-version", func(b []byte) []byte {
		// Patch the format version in place and re-checksum, so only the
		// version check can reject it.
		other := modelEntry.encodeEntry(key, "go-test-version", testModel())
		body := other[:len(other)-4]
		body[9]++ // version u32 starts at offset 8 (after the magic)
		return appendCRC(body)
	})
}

func appendCRC(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

func TestInjectedStoreFaults(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "k"
	injected := errors.New("injected I/O failure")
	restore := faultinject.SetStoreHook(func(op, path string) error { return injected })
	s.Save(key, testModel())
	if got := s.Stats().WriteErrors; got != 1 {
		t.Errorf("WriteErrors = %d, want 1 under injected save fault", got)
	}
	restore()

	s.Save(key, testModel())
	restore = faultinject.SetStoreHook(func(op, path string) error {
		if op == "load" {
			return injected
		}
		return nil
	})
	defer restore()
	if _, ok := s.Load(key); ok {
		t.Error("load succeeded under injected load fault")
	}
	if got := s.Stats().LoadErrors; got != 1 {
		t.Errorf("LoadErrors = %d, want 1", got)
	}
}

// TestConcurrentAccess hammers one store from many goroutines (run under
// -race in CI): concurrent saves of the same key must atomically converge,
// and loads must only ever observe fully written entries.
func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testModel()
	keys := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keys[(g+i)%len(keys)]
				if m, ok := s.Load(k); ok {
					sameModel(t, m, want)
				}
				s.Save(k, want)
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.CorruptDiscarded != 0 || st.WriteErrors != 0 {
		t.Errorf("concurrent access produced corruption/errors: %+v", st)
	}
	for _, k := range keys {
		m, ok := s.Load(k)
		if !ok {
			t.Fatalf("key %s missing after concurrent writes", k)
		}
		sameModel(t, m, want)
	}
}

// TestNoStrayTempFiles: after saves (successful and injected-failed), no
// temp files linger — the crash-safety rename either completes or cleans up.
func TestNoStrayTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Save("x", testModel())
	restore := faultinject.SetStoreHook(func(op, path string) error {
		return errors.New("boom")
	})
	s.Save("y", testModel())
	restore()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != modelEntry.ext {
			t.Errorf("stray file %s in store dir", e.Name())
		}
	}
}

// TestEntryBytesPinned pins the on-disk encoding of both entry kinds. Any
// change to it makes every persisted store unreadable (each old entry is
// discarded as corrupt), so it must come with a new format version.
func TestEntryBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"model", modelEntry.encodeEntry("pinned-key", "go-test-version", testModel()),
			"eca0906c33281e892fbd143c6df4bae1b42622179bb7ac47998b1e35307795d2"},
		{"prepared", preparedEntry.encodeEntry("pinned-key", "go-test-version", testCore()),
			"de6f3405772269f8655cc406db40b19145a45be24b2eef01af89c125ca589aeb"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.raw)); got != tc.want {
			t.Errorf("%s entry encoding moved:\n  got  %s\n  want %s", tc.name, got, tc.want)
		}
	}
}
