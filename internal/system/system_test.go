package system

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func demo() *System {
	return &System{
		Name:         "demo",
		MTBF:         100,
		BaselineTime: 1000,
		Levels: []Level{
			{Checkpoint: 0.2, Restart: 0.2, SeverityProb: 0.5},
			{Checkpoint: 1, Restart: 1, SeverityProb: 0.3},
			{Checkpoint: 5, Restart: 5, SeverityProb: 0.2},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := demo().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := map[string]func(*System){
		"no name":       func(s *System) { s.Name = "" },
		"zero mtbf":     func(s *System) { s.MTBF = 0 },
		"inf mtbf":      func(s *System) { s.MTBF = math.Inf(1) },
		"no levels":     func(s *System) { s.Levels = nil },
		"zero baseline": func(s *System) { s.BaselineTime = 0 },
		"inf baseline":  func(s *System) { s.BaselineTime = math.Inf(1) },
		"nan baseline":  func(s *System) { s.BaselineTime = math.NaN() },
		"zero ckpt":     func(s *System) { s.Levels[1].Checkpoint = 0 },
		"inf ckpt":      func(s *System) { s.Levels[1].Checkpoint = math.Inf(1) },
		"neg restart":   func(s *System) { s.Levels[0].Restart = -1 },
		"inf restart":   func(s *System) { s.Levels[2].Restart = math.Inf(1) },
		"prob > 1":      func(s *System) { s.Levels[0].SeverityProb = 1.4 },
		"bad prob sum":  func(s *System) { s.Levels[0].SeverityProb = 0.1 },
		"negative prob": func(s *System) { s.Levels[0].SeverityProb = -0.5 },
		"nan prob":      func(s *System) { s.Levels[0].SeverityProb = math.NaN() },
	}
	for name, mutate := range mutations {
		s := demo()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid system", name)
		}
	}
}

func TestRatesAndLambda(t *testing.T) {
	s := demo()
	if !almost(s.Lambda(), 0.01, 1e-15) {
		t.Fatalf("lambda = %v", s.Lambda())
	}
	if !almost(s.LevelRate(1), 0.005, 1e-15) || !almost(s.LevelRate(3), 0.002, 1e-15) {
		t.Fatalf("level rates wrong: %v %v", s.LevelRate(1), s.LevelRate(3))
	}
	cr, err := s.Rates()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(cr.Total(), s.Lambda(), 1e-15) {
		t.Fatalf("total rate %v != lambda %v", cr.Total(), s.Lambda())
	}
}

func TestTableIIntegrity(t *testing.T) {
	rows := TableI()
	if len(rows) != 11 {
		t.Fatalf("Table I has %d rows, want 11", len(rows))
	}
	wantOrder := []string{"M", "B", "D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9"}
	for i, s := range rows {
		if s.Name != wantOrder[i] {
			t.Errorf("row %d = %s, want %s", i, s.Name, wantOrder[i])
		}
		if err := s.Validate(); err != nil {
			t.Errorf("row %s invalid: %v", s.Name, err)
		}
		if !s.WellOrdered() {
			t.Errorf("row %s not well ordered", s.Name)
		}
		for j, l := range s.Levels {
			if l.Checkpoint != l.Restart {
				t.Errorf("row %s level %d: checkpoint %v != restart %v", s.Name, j+1, l.Checkpoint, l.Restart)
			}
		}
	}
}

func TestTableISpotValues(t *testing.T) {
	b, err := ByName("B")
	if err != nil {
		t.Fatal(err)
	}
	if b.NumLevels() != 4 || b.MTBF != 333.33 || b.BaselineTime != 1440 {
		t.Fatalf("B row wrong: %v", b)
	}
	if b.Levels[3].Checkpoint != 2.5 {
		t.Fatalf("B level-4 checkpoint = %v", b.Levels[3].Checkpoint)
	}
	d9, err := ByName("D9")
	if err != nil {
		t.Fatal(err)
	}
	if d9.BaselineTime != 180 || d9.MTBF != 3.13 || d9.NumLevels() != 2 {
		t.Fatalf("D9 row wrong: %v", d9)
	}
	// Severity probabilities are normalized: 0.870+0.130 = 1 exactly.
	if !almost(d9.Levels[0].SeverityProb+d9.Levels[1].SeverityProb, 1, 1e-12) {
		t.Fatal("D9 severities not normalized")
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestNames(t *testing.T) {
	n := Names()
	if len(n) != 11 || n[0] != "M" || n[10] != "D9" {
		t.Fatalf("Names() = %v", n)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := demo()
	c := s.Clone()
	c.Levels[0].Checkpoint = 99
	c.MTBF = 1
	if s.Levels[0].Checkpoint == 99 || s.MTBF == 1 {
		t.Fatal("Clone shares state with original")
	}
}

func TestProjectSingleLevel(t *testing.T) {
	s := demo()
	p, residual, err := s.Project([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	if residual != 0 {
		t.Fatalf("residual = %v", residual)
	}
	if p.NumLevels() != 1 || !almost(p.Levels[0].SeverityProb, 1, 1e-12) {
		t.Fatalf("projection wrong: %v", p)
	}
	if p.Levels[0].Checkpoint != 5 {
		t.Fatalf("projected checkpoint = %v", p.Levels[0].Checkpoint)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProjectTwoOfThree(t *testing.T) {
	s := demo()
	p, residual, err := s.Project([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if residual != 0 {
		t.Fatalf("residual = %v", residual)
	}
	// Severities 1 and 2 both recover from the kept level 2.
	if !almost(p.Levels[0].SeverityProb, 0.8, 1e-12) || !almost(p.Levels[1].SeverityProb, 0.2, 1e-12) {
		t.Fatalf("projected severities: %+v", p.Levels)
	}
	if p.Levels[0].Checkpoint != 1 || p.Levels[1].Checkpoint != 5 {
		t.Fatalf("projected costs: %+v", p.Levels)
	}
}

func TestProjectDropsTop(t *testing.T) {
	s := demo()
	p, residual, err := s.Project([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(residual, 0.2, 1e-12) {
		t.Fatalf("residual = %v, want 0.2", residual)
	}
	if p.NumLevels() != 2 || !almost(p.Levels[0].SeverityProb, 0.5, 1e-12) {
		t.Fatalf("projection wrong: %+v", p.Levels)
	}
}

func TestProjectRejectsBadSubsets(t *testing.T) {
	s := demo()
	for _, keep := range [][]int{nil, {0}, {4}, {2, 2}, {3, 1}} {
		if _, _, err := s.Project(keep); err == nil {
			t.Errorf("Project(%v) accepted", keep)
		}
	}
}

func TestProjectMassConservation(t *testing.T) {
	f := func(a, b, c uint8, dropTop bool) bool {
		probs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		var sum float64
		for _, p := range probs {
			sum += p
		}
		s := demo()
		for i := range s.Levels {
			s.Levels[i].SeverityProb = probs[i] / sum
		}
		keep := []int{1, 2, 3}
		if dropTop {
			keep = []int{1, 2}
		}
		p, residual, err := s.Project(keep)
		if err != nil {
			return false
		}
		var got float64
		for _, l := range p.Levels {
			got += l.SeverityProb
		}
		return almost(got+residual, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScalingKnobs(t *testing.T) {
	b, _ := ByName("B")
	scaled := b.WithMTBF(15).WithTopCost(40).WithBaseline(30)
	if scaled.MTBF != 15 || scaled.BaselineTime != 30 {
		t.Fatalf("scaling wrong: %v", scaled)
	}
	top := scaled.Levels[len(scaled.Levels)-1]
	if top.Checkpoint != 40 || top.Restart != 40 {
		t.Fatalf("top cost not applied: %+v", top)
	}
	// Lower levels untouched.
	if scaled.Levels[0].Checkpoint != b.Levels[0].Checkpoint {
		t.Fatal("lower level perturbed by WithTopCost")
	}
	// Original untouched.
	if b.MTBF != 333.33 || b.Levels[3].Checkpoint != 2.5 {
		t.Fatal("scaling mutated the source system")
	}
	if err := scaled.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWellOrdered(t *testing.T) {
	s := demo()
	if !s.WellOrdered() {
		t.Fatal("demo should be well ordered")
	}
	s.Levels[2].Checkpoint = 0.01
	if s.WellOrdered() {
		t.Fatal("descending checkpoint costs should not be well ordered")
	}
}

func TestString(t *testing.T) {
	str := demo().String()
	for _, want := range []string{"demo", "L=3", "MTBF=100", "δ=5"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() missing %q: %s", want, str)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := demo()
	s.Source = "unit test"
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name || back.MTBF != s.MTBF || back.BaselineTime != s.BaselineTime {
		t.Fatalf("round trip mangled: %v vs %v", back, s)
	}
	if len(back.Levels) != len(s.Levels) || back.Levels[2] != s.Levels[2] {
		t.Fatalf("levels mangled: %+v", back.Levels)
	}
	if back.Source != "unit test" {
		t.Fatalf("source lost: %q", back.Source)
	}
}

func TestReadJSONValidates(t *testing.T) {
	// Structurally valid JSON, semantically invalid system.
	bad := `{"name":"x","mtbf_minutes":-1,"baseline_minutes":10,
		"levels":[{"checkpoint_minutes":1,"restart_minutes":1,"severity_prob":1}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("invalid system accepted")
	}
	if _, err := ReadJSON(strings.NewReader("{nonsense")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Unknown fields rejected (typo protection for config files).
	typo := `{"name":"x","mtbff_minutes":5,"baseline_minutes":10,"levels":[]}`
	if _, err := ReadJSON(strings.NewReader(typo)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestJSONTableIRows(t *testing.T) {
	// Every catalog row must survive a JSON round trip and validate.
	for _, s := range TableI() {
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if back.String() != s.String() {
			t.Fatalf("%s: round trip drift:\n%s\n%s", s.Name, back, s)
		}
	}
}
