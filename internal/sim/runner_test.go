package sim

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/pattern"
)

// thresholdFailController aborts its trial (by proposing an invalid
// plan) at the first replan consult after the K-th failure. Whether a
// trial dies is a function of the trial's own failure draw only, so the
// set of failing trial indices is fixed by the campaign seed and
// independent of worker assignment.
type thresholdFailController struct {
	threshold int
	fails     int
}

func (c *thresholdFailController) OnFailure(float64, int) { c.fails++ }
func (c *thresholdFailController) Replan(float64, float64) (pattern.Plan, bool) {
	if c.fails >= c.threshold {
		return pattern.Plan{Tau0: -1}, true
	}
	return pattern.Plan{}, false
}

// TestCampaignFailFastDeterministicError pins the Run error contract:
// when trials fail, Run returns the error of the LOWEST-index failing
// trial, byte-identical regardless of worker count, scheduling, or
// engine reuse — even though cancellation means different worker counts
// execute different subsets of the campaign.
func TestCampaignFailFastDeterministicError(t *testing.T) {
	base := Campaign{
		Scenario: Scenario{System: twoLevel(100, 300), Plan: planBoth(2, 3)},
		ControllerFactory: func() PlanController {
			return &thresholdFailController{threshold: 7}
		},
		Trials: 300,
		Seed:   seed("failfast-deterministic"),
	}

	ref := base
	ref.Workers = 1
	_, refErr := ref.Run()
	if refErr == nil {
		t.Fatal("reference campaign produced no failing trial; raise the failure rate or lower the threshold")
	}
	if !strings.Contains(refErr.Error(), "trial ") || !strings.Contains(refErr.Error(), "invalid plan") {
		t.Fatalf("unexpected reference error: %v", refErr)
	}

	for _, workers := range []int{2, 3, 5, 16} {
		camp := base
		camp.Workers = workers
		_, err := camp.Run()
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if err.Error() != refErr.Error() {
			t.Errorf("workers=%d: error %q differs from single-worker reference %q",
				workers, err, refErr)
		}
	}

	fresh := base
	fresh.Workers = 4
	fresh.noEngineReuse = true
	_, err := fresh.Run()
	if err == nil || err.Error() != refErr.Error() {
		t.Errorf("fresh-engine campaign error %v differs from reference %q", err, refErr)
	}
}

// TestCampaignFailFastRunsTrialsBelowFailure: trials below the first
// failing index are never cancelled — the fail-fast cut is one-sided, a
// prerequisite for the deterministic-error contract above.
func TestCampaignFailFastRunsTrialsBelowFailure(t *testing.T) {
	var done atomic.Int64
	camp := Campaign{
		Scenario: Scenario{System: twoLevel(100, 300), Plan: planBoth(2, 3)},
		ControllerFactory: func() PlanController {
			return &thresholdFailController{threshold: 7}
		},
		Trials:    300,
		Workers:   8,
		Seed:      seed("failfast-deterministic"),
		TrialDone: func(TrialResult) { done.Add(1) },
	}
	_, err := camp.Run()
	if err == nil {
		t.Fatal("no error")
	}
	var firstBad int
	if _, scanErr := scanTrialIndex(err.Error(), &firstBad); scanErr != nil {
		t.Fatalf("cannot parse failing trial from %q: %v", err, scanErr)
	}
	// All trials below the first failing index completed, so at least
	// that many TrialDone callbacks fired (later trials may also have
	// completed before cancellation propagated).
	if int(done.Load()) < firstBad {
		t.Errorf("only %d trials completed, but trials 0..%d precede the first failure",
			done.Load(), firstBad-1)
	}
	if int(done.Load()) >= camp.Trials-1 {
		t.Errorf("fail-fast did not cancel: %d of %d trials ran", done.Load(), camp.Trials)
	}
}

// scanTrialIndex extracts N from an error string containing "trial N:".
func scanTrialIndex(s string, out *int) (int, error) {
	i := strings.Index(s, "trial ")
	if i < 0 {
		return 0, errors.New("no trial index")
	}
	n := 0
	found := false
	for _, r := range s[i+len("trial "):] {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int(r-'0')
		found = true
	}
	if !found {
		return 0, errors.New("no trial index")
	}
	*out = n
	return n, nil
}

// TestCampaignAllocsPerTrial bounds a whole campaign's allocations —
// engines, runner, shards and the default exact sink — per trial. The
// per-trial path itself allocates nothing; what remains is per worker
// and per block.
func TestCampaignAllocsPerTrial(t *testing.T) {
	c := goldenD7Campaign(t)
	c.Workers = 2
	avg := testing.AllocsPerRun(5, func() {
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	})
	per := avg / float64(c.Trials)
	if per > 0.5 {
		t.Fatalf("campaign allocates %.2f objects per trial (%.0f per run), want <= 0.5", per, avg)
	}
	t.Logf("%.2f allocs per trial (%.0f per run)", per, avg)
}
