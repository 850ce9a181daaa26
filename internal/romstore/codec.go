// The entry codec: a hand-rolled, fully bounds-checked binary format chosen
// over encoding/gob so that decoding arbitrary bytes is guaranteed to yield
// "discard and recompute" — an error, never a panic — and so float64 model
// payloads round-trip bit-exactly (raw IEEE-754 bits, little-endian).
//
// Every entry kind (models here, prepared cores in prepared.go) shares one
// envelope and differs only in its magic, format version and payload codec.
// Entry layout (all integers little-endian):
//
//	magic      [8]byte  "XTROMS1\n" for a model
//	version    u32      the kind's format version (1)
//	goVersion  str      u32 length + bytes (runtime.Version of the writer)
//	key        str      the full prune.Fingerprint bytes
//	payload    str      the kind's payload codec (the model codec below)
//	crc        u32      CRC-32 (IEEE) of every byte above
//
// Model payload layout:
//
//	order, ports, blockIters, deflated  u32 ×4
//	exhausted                           u8
//	portNames                           u32 count + count × str
//	T                                   mat: u32 rows, u32 cols, rows·cols × f64
//	Rho                                 mat
package romstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"xtverify/internal/matrix"
	"xtverify/internal/sympvl"
)

const (
	// maxStr bounds any length-prefixed byte field (keys, names, payload);
	// far above any real entry, low enough that a corrupted length cannot
	// drive a giant allocation.
	maxStr = 64 << 20
	// maxMatElems bounds rows·cols of a stored matrix (a q=2896 square —
	// orders of magnitude above real reduced orders).
	maxMatElems = 1 << 23
)

// errCorrupt is the single decode failure: callers only need "discard".
var errCorrupt = errors.New("romstore: corrupt or incompatible entry")

// entryKind is one kind of store entry: its file extension, temp-file
// pattern, magic, format version and payload codec. Everything else — the
// envelope, the load and save paths, the counters — is shared.
type entryKind[T any] struct {
	ext, tmpPattern string
	magic           [8]byte
	version         uint32
	encode          func(T) []byte
	decode          func([]byte) (T, error)
}

// modelEntry stores SyMPVL models (.rom).
var modelEntry = entryKind[*sympvl.Model]{
	ext:        ".rom",
	tmpPattern: ".tmp-rom-*",
	magic:      [8]byte{'X', 'T', 'R', 'O', 'M', 'S', '1', '\n'},
	version:    1,
	encode:     encodeModel,
	decode:     decodeModel,
}

// appendStr appends a u32 length-prefixed byte string.
func appendStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// appendMat appends a dense matrix: dims then raw float64 bits.
func appendMat(buf []byte, m *matrix.Dense) []byte {
	r, c := m.Rows(), m.Cols()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.At(i, j)))
		}
	}
	return buf
}

// encodeModel serializes m's persistent fields.
func encodeModel(m *sympvl.Model) []byte {
	buf := make([]byte, 0, 64+8*(m.Order*m.Order+m.Order*m.Ports))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Order))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Ports))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.BlockIterations))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Deflated))
	if m.Exhausted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.PortNames)))
	for _, n := range m.PortNames {
		buf = appendStr(buf, n)
	}
	buf = appendMat(buf, m.T)
	buf = appendMat(buf, m.Rho)
	return buf
}

// encodeEntry wraps v's payload in the kind's versioned, checksummed
// envelope.
func (k entryKind[T]) encodeEntry(key, goVersion string, v T) []byte {
	payload := k.encode(v)
	buf := make([]byte, 0, len(k.magic)+16+len(goVersion)+len(key)+len(payload)+8)
	buf = append(buf, k.magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, k.version)
	buf = appendStr(buf, goVersion)
	buf = appendStr(buf, key)
	buf = appendStr(buf, string(payload))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// reader is a bounds-checked cursor over an entry. Every take* method
// returns an error instead of slicing past the end, so decoding arbitrary
// bytes can never panic.
type reader struct {
	b   []byte
	off int
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) || r.off+n < r.off {
		return nil, errCorrupt
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) str(limit int) ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(limit) {
		return nil, errCorrupt
	}
	return r.take(int(n))
}

func (r *reader) f64() (float64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

func (r *reader) mat() (*matrix.Dense, error) {
	rows, err := r.u32()
	if err != nil {
		return nil, err
	}
	cols, err := r.u32()
	if err != nil {
		return nil, err
	}
	if rows == 0 || cols == 0 || uint64(rows)*uint64(cols) > maxMatElems {
		return nil, errCorrupt
	}
	// Cheap pre-check before allocating: the floats must actually be there.
	if remaining := len(r.b) - r.off; int64(remaining) < 8*int64(rows)*int64(cols) {
		return nil, errCorrupt
	}
	m := matrix.NewDense(int(rows), int(cols))
	for i := 0; i < int(rows); i++ {
		for j := 0; j < int(cols); j++ {
			v, err := r.f64()
			if err != nil {
				return nil, err
			}
			m.Set(i, j, v)
		}
	}
	return m, nil
}

// decodeModel parses and validates a model payload.
func decodeModel(payload []byte) (*sympvl.Model, error) {
	r := &reader{b: payload}
	order, err := r.u32()
	if err != nil {
		return nil, err
	}
	ports, err := r.u32()
	if err != nil {
		return nil, err
	}
	iters, err := r.u32()
	if err != nil {
		return nil, err
	}
	deflated, err := r.u32()
	if err != nil {
		return nil, err
	}
	exhausted, err := r.u8()
	if err != nil {
		return nil, err
	}
	if exhausted > 1 {
		return nil, errCorrupt
	}
	nNames, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nNames > 1<<16 {
		return nil, errCorrupt
	}
	names := make([]string, nNames)
	for i := range names {
		b, err := r.str(1 << 16)
		if err != nil {
			return nil, err
		}
		names[i] = string(b)
	}
	t, err := r.mat()
	if err != nil {
		return nil, err
	}
	rho, err := r.mat()
	if err != nil {
		return nil, err
	}
	if r.off != len(payload) {
		return nil, errCorrupt // trailing garbage
	}
	// Structural validation: the dims must be the coherent q×q / q×p pair
	// the engine is about to trust.
	q, p := int(order), int(ports)
	if q <= 0 || p <= 0 || t.Rows() != q || t.Cols() != q ||
		rho.Rows() != q || rho.Cols() != p || len(names) != p {
		return nil, errCorrupt
	}
	return &sympvl.Model{
		T:               t,
		Rho:             rho,
		Order:           q,
		Ports:           p,
		PortNames:       names,
		BlockIterations: int(iters),
		Deflated:        int(deflated),
		Exhausted:       exhausted == 1,
	}, nil
}

// decodeEntry validates the full entry envelope — magic, format version,
// go version, key match, checksum — and then the payload. Any failure is
// errCorrupt; a deferred recover turns even an unforeseen decoder bug into
// "discard and recompute" rather than a crashed daemon.
func (k entryKind[T]) decodeEntry(raw []byte, wantKey, wantGoVersion string) (v T, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			var zero T
			v, err = zero, fmt.Errorf("%w: decoder panic: %v", errCorrupt, rec)
		}
	}()
	var zero T
	if len(raw) < len(k.magic)+4+4 {
		return zero, errCorrupt
	}
	// Checksum first: it covers everything and catches most corruption.
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return zero, errCorrupt
	}
	r := &reader{b: body}
	magic, err := r.take(len(k.magic))
	if err != nil || string(magic) != string(k.magic[:]) {
		return zero, errCorrupt
	}
	version, err := r.u32()
	if err != nil || version != k.version {
		return zero, errCorrupt
	}
	goVer, err := r.str(1 << 12)
	if err != nil || string(goVer) != wantGoVersion {
		return zero, errCorrupt
	}
	key, err := r.str(maxStr)
	if err != nil || string(key) != wantKey {
		return zero, errCorrupt
	}
	payload, err := r.str(maxStr)
	if err != nil {
		return zero, errCorrupt
	}
	if r.off != len(body) {
		return zero, errCorrupt
	}
	return k.decode(payload)
}
