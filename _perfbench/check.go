package main

import (
	"fmt"
	"math"
)

// relTol is the correctness bound: a figure may differ from its reference
// by this share of the reference. It admits a reordered floating-point
// summation and still catches a wrong number.
const relTol = 1e-9

// relClose reports whether got is within relTol of want.
func relClose(got, want float64) bool {
	if got == want {
		return true
	}
	scale := math.Max(math.Abs(got), math.Abs(want))
	return math.Abs(got-want) <= relTol*scale
}

// figures is the part of a run's outcome the checks compare: named
// energies and temperatures in a fixed order.
type figures struct {
	names  []string
	values []float64
}

func (f *figures) add(name string, v float64) {
	f.names = append(f.names, name)
	f.values = append(f.values, v)
}

// compare returns an error naming the first figure of got that is not
// within relTol of want.
func compare(what string, got, want figures) error {
	if len(got.values) != len(want.values) {
		return fmt.Errorf("%s: %d figures, reference has %d", what, len(got.values), len(want.values))
	}
	for i, g := range got.values {
		if !relClose(g, want.values[i]) {
			return fmt.Errorf("%s: %s = %.17g, reference %.17g", what, want.names[i], g, want.values[i])
		}
	}
	return nil
}
