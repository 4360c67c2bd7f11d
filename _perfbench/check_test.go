package main

import (
	"context"
	"math"
	"testing"

	"nanobus/internal/core"
	"nanobus/internal/itrs"
)

func TestCheckFailsOnPerturbedEnergy(t *testing.T) {
	node, err := itrs.Resolve("90nm")
	if err != nil {
		t.Fatal(err)
	}
	run := func(memoLog2 int) figures {
		sim, err := core.New(core.Config{Node: node, CouplingDepth: -1, IntervalCycles: 1024, MemoSizeLog2: memoLog2, DropSamples: true})
		if err != nil {
			t.Fatal(err)
		}
		words := make([]uint32, 8192)
		newAddressGen(3).fill(words)
		if _, err := sim.StepBatch(context.Background(), words); err != nil {
			t.Fatal(err)
		}
		if err := sim.Finish(); err != nil {
			t.Fatal(err)
		}
		return simFigures(sim)
	}
	ref, got := run(-1), run(0)
	if err := compare("memo vs direct kernel", got, ref); err != nil {
		t.Fatalf("memoized run fails the check: %v", err)
	}

	perturbed := figures{names: got.names, values: append([]float64(nil), got.values...)}
	perturbed.values[0] *= 1 + 1e-6
	if err := compare("perturbed", perturbed, ref); err == nil {
		t.Fatal("a 1e-6 relative error in self energy passed the check")
	}
	// A reordered summation moves the last bits only; it must pass.
	perturbed.values[0] = math.Nextafter(got.values[0], math.Inf(1))
	if err := compare("last bit", perturbed, ref); err != nil {
		t.Fatalf("a one-ulp difference failed the check: %v", err)
	}
	if err := compare("short", figures{}, ref); err == nil {
		t.Fatal("a result with missing figures passed the check")
	}
}
