package main

import "encoding/json"

// manifest renders BENCHMARK.json from the definitions in this package,
// so the file at the repository root cannot drift from the code
// (-print-manifest writes it; a unit test compares the two).
func manifest() []byte {
	type workloadDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []gated       `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: frozenSeconds,
	}
	for _, c := range workloadCfgs {
		doc.Workloads = append(doc.Workloads, workloadDoc{c.name, c.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, gated{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
