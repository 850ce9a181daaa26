// Prepared-transient persistence: alongside the SyMPVL models (.rom), the
// store can hold the scenario-independent numeric core of a
// romsim.Prepared (.prep) — the termination-fold eigendecomposition, η
// columns and stepping parameters — so a warm process skips the
// diagonalization as well as the reduction. The entries share the store's
// durability contract: crash-safe writes, fully validated defensive loads,
// corruption discarded and recomputed, floats as raw IEEE-754 bits so warm
// transients are bit-identical to cold ones.
//
// Prepared entries use the shared envelope (codec.go) with magic
// "XTPREP1\n", format version 1, the fingerprint + termination-pattern key,
// and this core payload (all integers little-endian):
//
//	order, ports             u32 ×2
//	dvals                    order × f64
//	etaCols                  ports × (order × f64)
//	kinds                    ports × u8
//	gs                       ports × f64
//	dt, tend                 f64 ×2
//	nSteps, maxNewton        u32 ×2
//	tol                      f64
//	denseNewt, noInitDC      u8 ×2
package romstore

import (
	"encoding/binary"
	"math"

	"xtverify/internal/romsim"
)

// maxPreparedPorts bounds the port count of a stored core (far above any
// real cluster; low enough to stop a corrupted length driving a giant
// allocation).
const maxPreparedPorts = 1 << 16

// preparedEntry stores prepared-transient cores (.prep).
var preparedEntry = entryKind[*romsim.PreparedCore]{
	ext:        ".prep",
	tmpPattern: ".tmp-prep-*",
	magic:      [8]byte{'X', 'T', 'P', 'R', 'E', 'P', '1', '\n'},
	version:    1,
	encode:     encodePreparedCore,
	decode:     decodePreparedCore,
}

// LoadPrepared returns the stored prepared core for key, or (nil, false).
// Like Load, it never returns a core it could not fully validate: corruption
// discards the entry and reports a miss so the caller re-Prepares.
func (s *Store) LoadPrepared(key string) (*romsim.PreparedCore, bool) {
	return preparedEntry.load(s, key)
}

// SavePrepared persists the core under key, best-effort and crash-safe,
// like Save.
func (s *Store) SavePrepared(key string, c *romsim.PreparedCore) { preparedEntry.save(s, key, c) }

// encodePreparedCore serializes the core payload.
func encodePreparedCore(c *romsim.PreparedCore) []byte {
	buf := make([]byte, 0, 64+8*(c.Order+c.Ports*(c.Order+1)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Order))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Ports))
	for _, v := range c.Dvals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, col := range c.EtaCols {
		for _, v := range col {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	buf = append(buf, c.Kinds...)
	for _, v := range c.Gs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Dt))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.TEnd))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.NSteps))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.MaxNewton))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Tol))
	buf = append(buf, boolByte(c.DenseNewt), boolByte(c.NoInitDC))
	return buf
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// decodePreparedCore parses and validates a core payload. Beyond the codec
// checks here, romsim.PreparedFromCore re-validates the numeric structure
// before the core is trusted.
func decodePreparedCore(payload []byte) (*romsim.PreparedCore, error) {
	r := &reader{b: payload}
	order, err := r.u32()
	if err != nil {
		return nil, err
	}
	ports, err := r.u32()
	if err != nil {
		return nil, err
	}
	if order == 0 || ports == 0 || order > maxMatElems || ports > maxPreparedPorts ||
		uint64(order)*uint64(ports) > maxMatElems {
		return nil, errCorrupt
	}
	q, p := int(order), int(ports)
	// Cheap size pre-check before allocating: every fixed-width field below.
	need := 8*q + 8*q*p + p + 8*p + 8 + 8 + 4 + 4 + 8 + 2
	if len(payload)-r.off != need {
		return nil, errCorrupt
	}
	c := &romsim.PreparedCore{Order: q, Ports: p}
	c.Dvals = make([]float64, q)
	for i := range c.Dvals {
		if c.Dvals[i], err = r.f64(); err != nil {
			return nil, err
		}
	}
	c.EtaCols = make([][]float64, p)
	etaData := make([]float64, p*q)
	for j := range c.EtaCols {
		c.EtaCols[j] = etaData[j*q : (j+1)*q]
		for i := 0; i < q; i++ {
			if c.EtaCols[j][i], err = r.f64(); err != nil {
				return nil, err
			}
		}
	}
	kinds, err := r.take(p)
	if err != nil {
		return nil, err
	}
	c.Kinds = append([]uint8(nil), kinds...)
	for _, k := range c.Kinds {
		if k > 2 {
			return nil, errCorrupt
		}
	}
	c.Gs = make([]float64, p)
	for i := range c.Gs {
		if c.Gs[i], err = r.f64(); err != nil {
			return nil, err
		}
	}
	if c.Dt, err = r.f64(); err != nil {
		return nil, err
	}
	if c.TEnd, err = r.f64(); err != nil {
		return nil, err
	}
	nSteps, err := r.u32()
	if err != nil {
		return nil, err
	}
	maxNewton, err := r.u32()
	if err != nil {
		return nil, err
	}
	if c.Tol, err = r.f64(); err != nil {
		return nil, err
	}
	dense, err := r.u8()
	if err != nil || dense > 1 {
		return nil, errCorrupt
	}
	noDC, err := r.u8()
	if err != nil || noDC > 1 {
		return nil, errCorrupt
	}
	if r.off != len(payload) {
		return nil, errCorrupt
	}
	c.NSteps = int(nSteps)
	c.MaxNewton = int(maxNewton)
	c.DenseNewt = dense == 1
	c.NoInitDC = noDC == 1
	if c.NSteps < 1 || c.MaxNewton < 1 || !(c.Dt > 0) || !(c.TEnd > 0) || !(c.Tol > 0) {
		return nil, errCorrupt
	}
	return c, nil
}
