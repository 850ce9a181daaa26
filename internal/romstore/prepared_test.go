package romstore

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"xtverify/internal/faultinject"
	"xtverify/internal/romsim"
)

// testCore builds a small prepared core with awkward float values so the
// roundtrip assertions cover bit-exactness, not just approximate equality.
func testCore() *romsim.PreparedCore {
	return &romsim.PreparedCore{
		Order:     3,
		Ports:     2,
		Dvals:     []float64{1.5e-12, math.Copysign(0, -1), 3e-310},
		EtaCols:   [][]float64{{0.5, -1.25, 1e-300}, {2.5, math.NaN(), -3.5}},
		Kinds:     []uint8{1, 2},
		Gs:        []float64{1e-3, 0},
		Dt:        1e-12,
		TEnd:      2e-9,
		NSteps:    2000,
		Tol:       1e-9,
		MaxNewton: 40,
		DenseNewt: true,
		NoInitDC:  false,
	}
}

// sameCore compares every field bit-for-bit.
func sameCore(t *testing.T, got, want *romsim.PreparedCore) {
	t.Helper()
	if got.Order != want.Order || got.Ports != want.Ports ||
		got.NSteps != want.NSteps || got.MaxNewton != want.MaxNewton ||
		got.DenseNewt != want.DenseNewt || got.NoInitDC != want.NoInitDC {
		t.Fatalf("scalar fields differ: got %+v want %+v", got, want)
	}
	bits := func(name string, g, w float64) {
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s = %x want %x (bit-exact)", name, math.Float64bits(g), math.Float64bits(w))
		}
	}
	bits("Dt", got.Dt, want.Dt)
	bits("TEnd", got.TEnd, want.TEnd)
	bits("Tol", got.Tol, want.Tol)
	for i := range want.Dvals {
		bits("Dvals", got.Dvals[i], want.Dvals[i])
	}
	for j := range want.EtaCols {
		for i := range want.EtaCols[j] {
			bits("EtaCols", got.EtaCols[j][i], want.EtaCols[j][i])
		}
	}
	for i := range want.Gs {
		bits("Gs", got.Gs[i], want.Gs[i])
	}
	for i := range want.Kinds {
		if got.Kinds[i] != want.Kinds[i] {
			t.Fatalf("Kinds[%d] = %d want %d", i, got.Kinds[i], want.Kinds[i])
		}
	}
}

func TestPreparedRoundTripBitExact(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testCore()
	key := "fp\x00bytes|prep|3ff0|pat"
	if _, ok := s.LoadPrepared(key); ok {
		t.Fatal("load before save hit")
	}
	s.SavePrepared(key, want)
	got, ok := s.LoadPrepared(key)
	if !ok {
		t.Fatal("load after save missed")
	}
	sameCore(t, got, want)
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.CorruptDiscarded != 0 {
		t.Errorf("stats %+v, want 1 hit / 1 miss / 1 write / 0 corrupt", st)
	}
}

// TestPreparedAndModelCoexist: a fingerprint may own a .rom model and .prep
// cores at once — the extension keeps the key spaces disjoint.
func TestPreparedAndModelCoexist(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "shared-fingerprint"
	s.Save(key, testModel())
	s.SavePrepared(key, testCore())
	if _, ok := s.Load(key); !ok {
		t.Error("model lost after prepared save")
	}
	if _, ok := s.LoadPrepared(key); !ok {
		t.Error("prepared core lost after model save")
	}
}

// TestPreparedCorruptionDiscarded: truncated, bit-flipped, wrong-version and
// wrong-key prepared entries must be discarded (file removed, counted) and
// reported as misses — never trusted, never fatal.
func TestPreparedCorruptionDiscarded(t *testing.T) {
	key := "the-key"
	valid := preparedEntry.encodeEntry(key, "go-test-version", testCore())

	cases := []struct {
		name string
		raw  []byte
		key  string
	}{
		{"truncated", valid[:len(valid)/2], key},
		{"empty", nil, key},
		{"bit flip in payload", flip(valid, len(valid)/2), key},
		{"bit flip in magic", flip(valid, 0), key},
		{"key collision", valid, "a-different-key"},
		{"go version skew", preparedEntry.encodeEntry(key, "go-other-version", testCore()), key},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s.goVersion = "go-test-version"
			path := preparedEntry.path(s, tc.key)
			if err := os.WriteFile(path, tc.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.LoadPrepared(tc.key); ok {
				t.Fatal("corrupt prepared entry was trusted")
			}
			if st := s.Stats(); st.CorruptDiscarded != 1 {
				t.Errorf("CorruptDiscarded = %d, want 1 (stats %+v)", st.CorruptDiscarded, st)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("corrupt file not removed: %v", err)
			}
			// A second load is a plain miss, ready for recompute-and-save.
			if _, ok := s.LoadPrepared(tc.key); ok {
				t.Fatal("removed entry still hit")
			}
		})
	}
}

// flip returns a copy of raw with one bit toggled at index i.
func flip(raw []byte, i int) []byte {
	out := append([]byte(nil), raw...)
	out[i] ^= 0x10
	return out
}

// TestPreparedInjectedFaults: injected I/O failures on the prepared paths are
// counted and degrade to miss/skip — the store never propagates them.
func TestPreparedInjectedFaults(t *testing.T) {
	faultinject.LeakCheck(t)
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.SetStoreHook(func(op, path string) error {
		return errors.New("faultinject: disk unavailable")
	})
	s.SavePrepared("k", testCore())
	if _, ok := s.LoadPrepared("k"); ok {
		t.Fatal("load hit under injected faults")
	}
	restore()
	st := s.Stats()
	if st.WriteErrors == 0 || st.LoadErrors == 0 {
		t.Errorf("injected faults not counted: %+v", st)
	}
	if st.Writes != 0 || st.Hits != 0 {
		t.Errorf("faulted ops recorded as successes: %+v", st)
	}
	// With the fault cleared the same store works normally.
	s.SavePrepared("k", testCore())
	if _, ok := s.LoadPrepared("k"); !ok {
		t.Fatal("store did not recover after faults cleared")
	}
	if ents, err := os.ReadDir(s.dir); err == nil {
		for _, e := range ents {
			if filepath.Ext(e.Name()) != preparedEntry.ext {
				t.Errorf("stray file %s", e.Name())
			}
		}
	}
}
