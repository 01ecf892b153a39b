package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// BENCHMARK.json at the repository root declares every metric with its
// unit; the benchmark takes units from it and refuses to print a result
// whose metric set differs from the declaration.
const declarationFile = "BENCHMARK.json"

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type declaration struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

// units maps every declared metric to its unit.
var units = map[string]string{}

func loadDeclaration() (*declaration, error) {
	data, err := os.ReadFile(declarationFile)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", declarationFile, err)
	}
	for _, m := range append(append([]declaredMetric(nil), d.EndToEnd...), d.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return &d, nil
}

// checkDeclared reports metrics printed but not declared for this kind of
// run, or declared but missing.
func checkDeclared(want []declaredMetric, got metrics) error {
	var missing, extra []string
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	for n := range got {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("metrics differ from %s: missing %v, undeclared %v", declarationFile, missing, extra)
}
