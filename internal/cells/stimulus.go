package cells

// DriverModel selects how a driving cell is modeled when a cluster is
// analyzed (the paper's Section 4). The glitch engine attaches the model and
// the rung-0 screen bounds the same one, so both read this one enum.
type DriverModel int

// Driver model families.
const (
	// DriverFixedR models every driver as one fixed linear resistance behind
	// an ideal ramp source (the Figure 3 setup with 1 kΩ).
	DriverFixedR DriverModel = iota
	// DriverTimingLibrary uses per-cell linear resistances and output
	// transitions deduced from the NLDM tables (Section 4.1 / Table 3).
	DriverTimingLibrary
	// DriverNonlinear uses the pre-characterized nonlinear cell models
	// (Section 4.2 / Table 4).
	DriverNonlinear
)

// The worst-case stimulus every cluster is analyzed under. The rung-0
// screen is conservative only for the stimulus the glitch engine applies,
// so both read these values.
const (
	// AggressorInputSlew is the full-swing transition time of the input
	// ramp that switches each aggressor's driver.
	AggressorInputSlew = 120e-12
	// DefaultFixedOhms is the drive resistance of DriverFixedR when none
	// is configured.
	DefaultFixedOhms = 1000.0
)
