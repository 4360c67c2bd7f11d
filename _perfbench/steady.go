package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSteady runs every workload rounds times, rotating which goes first
// each round and using a new seed each round, then prints each
// end-to-end metric's median, quartiles and extremes with the spread
// (q3-q1)/median beside the metric's bound from BENCHMARK.json.
func runSteady(rounds int, cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := readBounds("BENCHMARK.json")
	vals := map[string]map[string][]float64{}
	for r := 0; r < rounds; r++ {
		for j := range workloads {
			spec := workloads[(j+r)%len(workloads)]
			seed := cfg.seed + uint64(r)
			args := []string{
				"--workload", spec.name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(cfg.seconds), "--trace", "0",
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", spec.name, seed, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", spec.name, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: correct=%v failed=%d", spec.name, seed, res.Correct, res.Failed)
			}
			if vals[spec.name] == nil {
				vals[spec.name] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				vals[spec.name][name] = append(vals[spec.name][name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "steady: round %d %s seed %d done\n", r, spec.name, seed)
		}
	}
	fmt.Printf("%-14s %-16s %14s %14s %14s %14s %14s %8s %6s\n",
		"workload", "metric", "median", "q1", "q3", "min", "max", "spread", "bound")
	for _, spec := range workloads {
		for _, m := range endToEnd {
			xs := vals[spec.name][m.name]
			q1, q2, q3 := quartiles(xs)
			s := sortedCopy(xs)
			fmt.Printf("%-14s %-16s %14.6g %14.6g %14.6g %14.6g %14.6g %8.4f %6.2f\n",
				spec.name, m.name, q2, q1, q3, s[0], s[len(s)-1], (q3-q1)/q2, bounds[m.name])
		}
	}
	return nil
}

func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("parse result line %q: %w", last, err)
	}
	return res, nil
}

// readBounds returns each end-to-end metric's bound from the benchmark
// manifest, or an empty map when it cannot be read.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var manifest struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &manifest) != nil {
		return out
	}
	for _, m := range manifest.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
