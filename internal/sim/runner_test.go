package sim

import "testing"

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
