package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func decodeLines(t *testing.T, out string) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		recs = append(recs, m)
	}
	return recs
}

func TestEventLogJSONAndRunID(t *testing.T) {
	var sb strings.Builder
	e := NewEventLog(&sb, "cafe0123cafe0123")
	e.WithLabel("D7/daly").CampaignStart(1, 4, 100, 200, 400)
	e.Checkpoint("/tmp/ck.json", 128)
	e.Resume("/tmp/ck.json", 128)
	e.ShardMerge([]string{"a", "b"}, 400)
	e.Error("failed", errors.New("boom"))
	e.CampaignEnd("failed", 160, 2500*time.Millisecond)
	e.Event("custom", "k", "v")

	recs := decodeLines(t, sb.String())
	if len(recs) != 7 {
		t.Fatalf("got %d records, want 7", len(recs))
	}
	wantMsg := []string{"campaign_start", "checkpoint", "resume", "shard_merge",
		"campaign_error", "campaign_end", "custom"}
	for i, r := range recs {
		if r["msg"] != wantMsg[i] {
			t.Fatalf("record %d msg %v, want %v", i, r["msg"], wantMsg[i])
		}
		if r["run_id"] != "cafe0123cafe0123" {
			t.Fatalf("record %d missing run_id: %v", i, r)
		}
		if _, ok := r["ts_ms"].(float64); !ok {
			t.Fatalf("record %d missing ts_ms: %v", i, r)
		}
	}
	if recs[0]["trials_total"] != float64(400) || recs[0]["shard"] != float64(1) || recs[0]["label"] != "D7/daly" {
		t.Fatalf("campaign_start attrs: %v", recs[0])
	}
	if recs[4]["level"] != "ERROR" || recs[4]["error"] != "boom" {
		t.Fatalf("campaign_error record: %v", recs[4])
	}
	if recs[5]["elapsed_ms"] != float64(2500) {
		t.Fatalf("campaign_end record: %v", recs[5])
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var e *EventLog
	e.WithLabel("x").CampaignStart(0, 1, 0, 10, 10)
	e.Checkpoint("p", 1)
	e.Resume("p", 1)
	e.ShardMerge(nil, 0)
	e.Error("failed", errors.New("x"))
	e.CampaignEnd("complete", 10, time.Second)
	e.Event("anything")
	if e.WithLabel("x") != nil {
		t.Fatal("nil log WithLabel should stay nil")
	}
	if e.RunID() != "" {
		t.Fatal("nil log RunID should be empty")
	}
}
