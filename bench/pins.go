package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// pinsJSON holds the outputs of every workload at full size for one
// seed. Regenerate it only for a deliberate change of results: run
// `mlbench -seed 1 -out DIR` and copy the digests and values from
// DIR/<workload>.json.
//
//go:embed pins.json
var pinsJSON []byte

// pinnedOutputs are one workload's pinned outputs.
type pinnedOutputs struct {
	Digests map[string]string  `json:"digests,omitempty"`
	Values  map[string]float64 `json:"values,omitempty"`
}

// pins are the pinned outputs of every workload at seed pins.Seed.
var pins = func() (p struct {
	Seed      uint64                   `json:"seed"`
	Workloads map[string]pinnedOutputs `json:"workloads"`
}) {
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic(fmt.Sprintf("bench: pins.json: %v", err)) // embedded at build time
	}
	return p
}()

// valueTol is the relative tolerance on pinned and compared values.
// Values are means and spreads of floating-point folds; a deliberate
// change of summation order may move them in the last digits, and the
// tolerance keeps such a change legal while counts stay exact.
const valueTol = 1e-9

// checkPins compares the outputs of a run at the pinned seed with the
// pinned ones and describes every mismatch.
func checkPins(workload string, digests map[string]string, values map[string]float64) []string {
	p, ok := pins.Workloads[workload]
	if !ok {
		return []string{fmt.Sprintf("no pinned outputs for %s", workload)}
	}
	return diffOutputs("pinned", p.Digests, p.Values, digests, values)
}

// diffOutputs describes where outputs b differ from reference a: every
// digest of a must match exactly, every value of a within valueTol.
func diffOutputs(ref string, aDig map[string]string, aVal map[string]float64, bDig map[string]string, bVal map[string]float64) []string {
	var out []string
	for _, k := range sortedKeys(aDig) {
		if bDig[k] != aDig[k] {
			out = append(out, fmt.Sprintf("%s %s %s, got %s", ref, k, aDig[k], bDig[k]))
		}
	}
	for _, k := range sortedKeys(aVal) {
		want, got := aVal[k], bVal[k]
		if _, ok := bVal[k]; !ok || math.Abs(got-want) > valueTol*math.Abs(want) {
			out = append(out, fmt.Sprintf("%s %s %v, got %v", ref, k, want, got))
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
