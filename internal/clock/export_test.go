package clock

// Wheel geometry for the external differential tests.
const (
	TickBits  = tickBits
	HorizonNs = horizonNs
)
