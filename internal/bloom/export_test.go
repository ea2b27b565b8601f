package bloom

import (
	"math"
)

// Bits returns the filter size in bits.
func (f *Filter) Bits() uint64 { return f.nbits }

// EstimatedFPRate returns the expected false-positive rate given the number
// of entries inserted so far.
func (f *Filter) EstimatedFPRate() float64 {
	entries := f.Entries()
	if entries == 0 {
		return 0
	}
	k := float64(f.hashes)
	return math.Pow(1-math.Exp(-k*float64(entries)/float64(f.nbits)), k)
}
