// The serializable numeric core of a Prepared: everything the stepping loop
// reads after Prepare returns — the eigendecomposition of the folded system,
// the cached η columns, the conductance pattern and the fixed stepping
// parameters. The sympvl.Model itself is only consulted during Prepare, so a
// core round-trip skips both the reduction and the diagonalization while
// producing bit-identical transients (dvals and η travel as raw IEEE-754
// values and the stepping code is unchanged).
package romsim

import "fmt"

// PreparedCore is the flat, persistable state of a Prepared factorization.
// It captures the post-Prepare numeric state exactly. The source model is
// excluded; the Woodbury step systems and the scratch derive from the core
// and are rebuilt on restore.
type PreparedCore struct {
	Order int
	Ports int

	// Diagonalized system D·ẏ + y = η·i.
	Dvals   []float64
	EtaCols [][]float64 // Ports columns of length Order

	// Conductance pattern: per-port kind (0 open, 1 linear, 2 device) and
	// the linear conductances (0 on non-linear ports).
	Kinds []uint8
	Gs    []float64

	// Fixed stepping parameters.
	Dt, TEnd  float64
	NSteps    int
	Tol       float64
	MaxNewton int
	DenseNewt bool
	NoInitDC  bool
}

// Core extracts the prepared factorization's serializable numeric state. The
// returned core shares no memory with p (slices are copied), so it can
// outlive the engine that produced it.
func (p *Prepared) Core() *PreparedCore {
	c := &PreparedCore{
		Order:     p.q,
		Ports:     p.ports,
		Dvals:     append([]float64(nil), p.dvals...),
		EtaCols:   make([][]float64, len(p.etaCols)),
		Kinds:     make([]uint8, len(p.kinds)),
		Gs:        append([]float64(nil), p.gs...),
		Dt:        p.dt,
		TEnd:      p.tend,
		NSteps:    p.nSteps,
		Tol:       p.tol,
		MaxNewton: p.maxNewton,
		DenseNewt: p.denseNewt,
		NoInitDC:  p.noInitDC,
	}
	for j, col := range p.etaCols {
		c.EtaCols[j] = append([]float64(nil), col...)
	}
	for j, k := range p.kinds {
		c.Kinds[j] = uint8(k)
	}
	return c
}

// PreparedFromCore rebuilds a ready-to-step Prepared from a persisted core:
// port partitions are re-derived from the kinds, and the trapezoidal
// coefficient, the Woodbury step systems and the stepping scratch are
// rebuilt from Dt, the eigenvalues and η as Prepare builds them. The
// result is interchangeable with the Prepared the core was extracted from —
// every scenario executes the identical floating-point sequence. Dimension
// mismatches (a corrupted or hand-built core) are rejected.
func PreparedFromCore(c *PreparedCore) (*Prepared, error) {
	if c.Order <= 0 || c.Ports <= 0 {
		return nil, fmt.Errorf("romsim: core dimensions %dx%d invalid", c.Order, c.Ports)
	}
	if len(c.Dvals) != c.Order {
		return nil, fmt.Errorf("romsim: core has %d eigenvalues for order %d", len(c.Dvals), c.Order)
	}
	if len(c.EtaCols) != c.Ports || len(c.Kinds) != c.Ports || len(c.Gs) != c.Ports {
		return nil, fmt.Errorf("romsim: core port arrays disagree with %d ports", c.Ports)
	}
	if c.Dt <= 0 || c.TEnd <= 0 || c.NSteps < 1 || c.Tol <= 0 || c.MaxNewton < 1 {
		return nil, fmt.Errorf("romsim: core stepping parameters invalid")
	}
	p := &Prepared{
		q:         c.Order,
		ports:     c.Ports,
		dvals:     append([]float64(nil), c.Dvals...),
		etaCols:   make([][]float64, c.Ports),
		kinds:     make([]portKind, c.Ports),
		gs:        append([]float64(nil), c.Gs...),
		dt:        c.Dt,
		tend:      c.TEnd,
		nSteps:    c.NSteps,
		tol:       c.Tol,
		maxNewton: c.MaxNewton,
		denseNewt: c.DenseNewt,
		noInitDC:  c.NoInitDC,
	}
	for j, col := range c.EtaCols {
		if len(col) != c.Order {
			return nil, fmt.Errorf("romsim: core η column %d has %d rows for order %d", j, len(col), c.Order)
		}
		p.etaCols[j] = append([]float64(nil), col...)
	}
	for j, k := range c.Kinds {
		switch portKind(k) {
		case portOpen:
		case portLinear:
			p.linPorts = append(p.linPorts, j)
		case portDevice:
			p.nlPorts = append(p.nlPorts, j)
		default:
			return nil, fmt.Errorf("romsim: core port %d has unknown kind %d", j, k)
		}
		p.kinds[j] = portKind(k)
	}
	p.buildStepState()
	return p, nil
}
