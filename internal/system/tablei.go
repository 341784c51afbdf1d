package system

import "fmt"

// sym builds one Table I row with checkpoint time == restart time per
// level, the assumption stated in Section IV-C of the paper.
func sym(name, source string, mtbf float64, probs, times []float64, tb float64) *System {
	if len(probs) != len(times) {
		panic(fmt.Sprintf("system: tableI row %s has %d probs but %d times", name, len(probs), len(times)))
	}
	s := &System{Name: name, Source: source, MTBF: mtbf, BaselineTime: tb}
	for i := range probs {
		s.Levels = append(s.Levels, Level{
			Checkpoint:   times[i],
			Restart:      times[i],
			SeverityProb: probs[i],
		})
	}
	return s
}

// TableI returns the eleven test systems of the paper's Table I, in the
// paper's order of monotonically increasing resilience difficulty. All
// values are verbatim from the table (times in minutes, severities as
// probabilities); small rounding residue in the severity distributions is
// normalized so each row validates exactly.
func TableI() []*System {
	rows := []*System{
		sym("M", "[5] (BlueGene/L Coastal)", 6944.45,
			[]float64{0.083, 0.75, 0.167},
			[]float64{0.008, 0.075, 17.53}, 1440.0),
		sym("B", "[19] (BlueGene/Q Mira)", 333.33,
			[]float64{0.556, 0.278, 0.139, 0.027},
			[]float64{0.167, 0.5, 0.833, 2.5}, 1440.0),
		sym("D1", "[17] (ANL Fusion case 1)", 51.42,
			[]float64{0.857, 0.143},
			[]float64{0.333, 0.833}, 1440.0),
		sym("D2", "[17] (ANL Fusion case 2)", 24.0,
			[]float64{0.833, 0.167},
			[]float64{0.333, 0.833}, 1440.0),
		sym("D3", "[17] (ANL Fusion case 4)", 12.0,
			[]float64{0.833, 0.167},
			[]float64{0.167, 0.667}, 1440.0),
		sym("D4", "[17] (ANL Fusion case 5)", 6.0,
			[]float64{0.833, 0.167},
			[]float64{0.167, 0.667}, 1440.0),
		sym("D5", "[17] (ANL Fusion case 3)", 12.0,
			[]float64{0.833, 0.167},
			[]float64{0.333, 1.67}, 1440.0),
		sym("D6", "[17] (ANL Fusion case 6)", 6.0,
			[]float64{0.833, 0.167},
			[]float64{0.167, 1.67}, 720.0),
		sym("D7", "[17] (ANL Fusion case 7)", 4.0,
			[]float64{0.833, 0.167},
			[]float64{0.667, 3.33}, 360.0),
		sym("D8", "[17] (ANL Fusion case 8)", 3.13,
			[]float64{0.870, 0.130},
			[]float64{0.833, 5.0}, 360.0),
		sym("D9", "[17] (ANL Fusion case 9)", 3.13,
			[]float64{0.870, 0.130},
			[]float64{0.833, 5.0}, 180.0),
	}
	for _, r := range rows {
		normalizeSeverities(r)
	}
	return rows
}

// normalizeSeverities rescales the severity distribution to sum exactly
// to 1, absorbing the table's printed rounding residue proportionally.
func normalizeSeverities(s *System) {
	var sum float64
	for _, l := range s.Levels {
		sum += l.SeverityProb
	}
	if sum <= 0 {
		return
	}
	for i := range s.Levels {
		s.Levels[i].SeverityProb /= sum
	}
}

// ByName returns the Table I system with the given name.
func ByName(name string) (*System, error) {
	for _, s := range TableI() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("system: no Table I system named %q", name)
}
