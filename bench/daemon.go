package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/system"
)

// daemonSizes are the request counts of one daemon-mix rep.
type daemonSizes struct{ cold, warm, herd, simulate int }

var (
	daemonFull = daemonSizes{cold: 225, warm: 500, herd: 30, simulate: 30}
	daemonTiny = daemonSizes{cold: 20, warm: 40, herd: 3, simulate: 3}
)

// The request mix: cold plans over Table I D1–D9 under the paper's
// five techniques; herd rounds on M, whose dauwe sweep takes long
// enough (~10 ms) for both clients to arrive while it runs; simulations
// of a fixed two-level plan on three failure rates.
var (
	coldSystems     = []string{"D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9"}
	coldTechniques  = []string{"benoit", "daly", "dauwe", "di", "moody"}
	simulateSystems = []string{"D2", "D4", "D7"}
	simulatePlan    = service.PlanJSON{Tau0Minutes: 1.3, Counts: []int{3}, Levels: []int{1, 2}}
)

// clients is the closed-loop client count: one per core of the
// benchmark machine, each on its own keep-alive connection.
const clients = 2

// spotChecks is how many cold plans per rep are recomputed in-process
// through the model API and compared with the daemon's answer.
const spotChecks = 4

// daemonMix drives a fresh mlckptd per rep through four phases, as a
// closed loop of two clients: cold (distinct plan requests, all cache
// misses), warm (replays of cold requests, all hits), herd (both
// clients release the same fresh request at once, so one computes and
// one joins), and simulate (distinct 200-trial campaigns).
type daemonMix struct {
	mlckptd  string
	tiny     bool
	cold     []service.PlanRequest
	coldBody [][]byte
	warm     []int // indices into cold
	herd     [][]byte
	simulate [][]byte
}

// roundSig rounds x to digits significant decimal digits, so generated
// overrides read like hand-written ones.
func roundSig(x float64, digits int) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', digits, 64), 64)
	return v
}

// newDaemonMix generates the request mix from the workload seed.
func newDaemonMix(cfg Config) (*daemonMix, error) {
	sz := daemonFull
	if cfg.Tiny {
		sz = daemonTiny
	}
	r := rand.New(rand.NewPCG(cfg.Seed, 0x6461656d6f6e)) // "daemon"
	d := &daemonMix{mlckptd: cfg.Mlckptd, tiny: cfg.Tiny}
	seen := map[service.PlanRequest]bool{}
	add := func(req service.PlanRequest) ([]byte, error) {
		if seen[req] {
			return nil, nil
		}
		seen[req] = true
		return json.Marshal(req)
	}
	// Cold requests cycle through every (system, technique) pair, so each
	// seed's mix has the same composition and only the MTBF overrides and
	// the order vary with the seed.
	for len(d.cold) < sz.cold {
		k := len(d.cold) % (len(coldSystems) * len(coldTechniques))
		name := coldSystems[k/len(coldTechniques)]
		sys, err := system.ByName(name)
		if err != nil {
			return nil, err
		}
		req := service.PlanRequest{
			System:      name,
			Technique:   coldTechniques[k%len(coldTechniques)],
			MTBFMinutes: roundSig(sys.MTBF*(0.5+1.5*r.Float64()), 4),
		}
		b, err := add(req)
		if err != nil {
			return nil, err
		}
		if b != nil {
			d.cold = append(d.cold, req)
			d.coldBody = append(d.coldBody, b)
		}
	}
	r.Shuffle(len(d.cold), func(i, j int) {
		d.cold[i], d.cold[j] = d.cold[j], d.cold[i]
		d.coldBody[i], d.coldBody[j] = d.coldBody[j], d.coldBody[i]
	})
	for i := 0; i < sz.warm; i++ {
		d.warm = append(d.warm, r.IntN(len(d.cold)))
	}
	m, err := system.ByName("M")
	if err != nil {
		return nil, err
	}
	for len(d.herd) < sz.herd {
		b, err := add(service.PlanRequest{System: "M", Technique: "dauwe", MTBFMinutes: roundSig(m.MTBF*(0.25+r.Float64()), 6)})
		if err != nil {
			return nil, err
		}
		if b != nil {
			d.herd = append(d.herd, b)
		}
	}
	seeds := map[uint64]bool{}
	for len(d.simulate) < sz.simulate {
		seed := r.Uint64()>>1 + 1
		if seeds[seed] {
			continue
		}
		seeds[seed] = true
		plan := simulatePlan
		b, err := json.Marshal(service.SimulateRequest{
			PredictRequest: service.PredictRequest{
				PlanRequest: service.PlanRequest{System: simulateSystems[len(d.simulate)%len(simulateSystems)], Technique: "dauwe"},
				Plan:        &plan,
			},
			Trials: 200,
			Seed:   seed,
		})
		if err != nil {
			return nil, err
		}
		d.simulate = append(d.simulate, b)
	}
	return d, nil
}

// reply is one response as the client saw it; status 0 is a transport
// failure.
type reply struct {
	status int
	cache  string
	body   []byte
	ms     float64
}

func post(ctx context.Context, c *http.Client, url string, body []byte) reply {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{body: []byte(err.Error())}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return reply{body: []byte(err.Error()), ms: msSince(start)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b, ms: msSince(start)}
	if err != nil {
		r.status, r.body = 0, []byte(err.Error())
	}
	return r
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// closedLoop sends requests 0..n-1 from the clients, each client sending
// its next request only after its previous reply arrived, and returns
// the phase's wall time.
func closedLoop(n int, request func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				request(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// rep runs one daemon-mix rep against a fresh daemon. A traced rep
// starts the daemon with -log-json (an observer whose cost the rep
// measures) and scrapes /snapshot between phases to attribute time.
func (d *daemonMix) rep(ctx context.Context, traced bool) (repSample, error) {
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	defer client.CloseIdleConnections()
	calBefore := calibrate(d.tiny)
	srv, setup, err := startDaemon(ctx, client, d.mlckptd, traced)
	if err != nil {
		return repSample{}, err
	}
	defer srv.kill()

	var snaps []obs.Snapshot
	scrape := func() error {
		if !traced {
			return nil
		}
		resp, err := client.Get(srv.base + "/snapshot")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		s, err := obs.ReadSnapshot(resp.Body)
		snaps = append(snaps, s)
		return err
	}
	if err := scrape(); err != nil {
		return repSample{}, err
	}
	cold := make([]reply, len(d.coldBody))
	warm := make([]reply, len(d.warm))
	herd := make([]reply, clients*len(d.herd))
	simulate := make([]reply, len(d.simulate))
	var wall time.Duration
	phases := []func() time.Duration{
		func() time.Duration {
			return closedLoop(len(cold), func(i int) { cold[i] = post(ctx, client, srv.base+"/v1/plan", d.coldBody[i]) })
		},
		func() time.Duration {
			return closedLoop(len(warm), func(i int) { warm[i] = post(ctx, client, srv.base+"/v1/plan", d.coldBody[d.warm[i]]) })
		},
		func() time.Duration {
			start := time.Now()
			for k, body := range d.herd {
				var wg sync.WaitGroup
				release := make(chan struct{})
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(slot int) {
						defer wg.Done()
						<-release
						herd[slot] = post(ctx, client, srv.base+"/v1/plan", body)
					}(k*clients + c)
				}
				close(release)
				wg.Wait()
			}
			return time.Since(start)
		},
		func() time.Duration {
			return closedLoop(len(simulate), func(i int) { simulate[i] = post(ctx, client, srv.base+"/v1/simulate", d.simulate[i]) })
		},
	}
	for _, phase := range phases {
		wall += phase()
		if err := scrape(); err != nil {
			return repSample{}, err
		}
	}
	client.CloseIdleConnections()
	rss, err := peakRSSMiB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return repSample{}, err
	}
	if err := srv.stop(); err != nil {
		return repSample{}, fmt.Errorf("mlckptd: %w", err)
	}

	rep := RepReport{WallS: wall.Seconds(), Samples: map[string][]float64{}}
	check := func(phase string, r reply, caches ...string) {
		rep.Ops++
		rep.Samples[phase] = append(rep.Samples[phase], r.ms)
		switch {
		case r.status != http.StatusOK:
			rep.fail(1, "%s: status %d: %.200s", phase, r.status, r.body)
		case !slices.Contains(caches, r.cache):
			rep.fail(1, "%s: X-Cache %q, want %v", phase, r.cache, caches)
		}
	}
	var coldAll, simAll []byte
	for i, r := range cold {
		check("plan_cold", r, "miss")
		coldAll = append(coldAll, r.body...)
		if i < spotChecks && r.status == http.StatusOK {
			if err := checkPlan(d.cold[i], r.body); err != nil {
				rep.fail(1, "plan_cold %d: %v", i, err)
			}
		}
	}
	for i, r := range warm {
		check("plan_warm", r, "hit")
		if c := cold[d.warm[i]]; !bytes.Equal(r.body, c.body) {
			rep.fail(1, "plan_warm %d: body differs from its cold reply", i)
		}
	}
	for k := range d.herd {
		round := herd[k*clients : (k+1)*clients]
		for _, r := range round {
			check("plan_herd", r, "miss", "join", "hit")
			if !bytes.Equal(r.body, round[0].body) {
				rep.fail(1, "herd round %d: bodies differ", k)
			}
		}
	}
	for _, r := range simulate {
		check("simulate", r, "miss")
		simAll = append(simAll, r.body...)
	}
	rep.Digests = map[string]string{"cold_sha256": sha256Hex(coldAll), "simulate_sha256": sha256Hex(simAll)}
	rep.Extras = map[string]Metric{"daemon_req_per_s": {Value: float64(rep.Ops) / wall.Seconds(), Unit: "1/s", N: 1}}
	if traced {
		serviceAttribution(&rep, snaps, len(d.cold), len(d.herd))
	}
	s := repSample{traced: traced, setup: setup.Seconds(), cpu: cpuSeconds(srv.cmd.ProcessState), rssMiB: rss, report: rep}
	s.cal = (calBefore + calibrate(d.tiny)) / 2
	return s, nil
}

// checkPlan recomputes a plan request in this process through the
// model API and compares the daemon's answer with it.
func checkPlan(req service.PlanRequest, body []byte) error {
	var got service.PlanResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	sys, err := system.ByName(req.System)
	if err != nil {
		return err
	}
	tech, err := model.New(req.Technique)
	if err != nil {
		return err
	}
	plan, pred, err := tech.Optimize(sys.WithMTBF(req.MTBFMinutes))
	if err != nil {
		return err
	}
	if got.Plan.Tau0Minutes != plan.Tau0 || !slices.Equal(got.Plan.Counts, nonNil(plan.Counts)) ||
		!slices.Equal(got.Plan.Levels, plan.Levels) || got.Predicted.ExpectedMinutes != pred.ExpectedTime ||
		got.Predicted.Efficiency != pred.Efficiency {
		return fmt.Errorf("daemon answered %+v %+v, model API %v %+v", got.Plan, got.Predicted, plan, pred)
	}
	return nil
}

func nonNil(xs []int) []int {
	if xs == nil {
		return []int{}
	}
	return xs
}

// serviceAttribution derives the service-layer metrics of a traced rep
// from the daemon's /snapshot before the first phase and after each.
func serviceAttribution(rep *RepReport, snaps []obs.Snapshot, cold, rounds int) {
	request := func(s obs.Snapshot, endpoint string) (uint64, float64) {
		for _, h := range s.Histograms {
			if h.Name == "svc_request_seconds" && slices.Contains(h.Labels, obs.Label{Key: "endpoint", Value: endpoint}) {
				return h.Count, h.Sum
			}
		}
		return 0, 0
	}
	serverMS := func(phase int, endpoint string) Metric {
		c0, s0 := request(snaps[phase], endpoint)
		c1, s1 := request(snaps[phase+1], endpoint)
		return Metric{Value: (s1 - s0) / float64(c1-c0) * 1000, Unit: "ms", N: int(c1 - c0)}
	}
	delta := func(name string, from, to int) float64 {
		return float64(snaps[to].Counter(name)) - float64(snaps[from].Counter(name))
	}
	last := len(snaps) - 1
	frac := func(v float64) Metric { return Metric{Value: v, Unit: "frac", N: 1} }
	hits, misses := delta("svc_cache_hits_total", 0, last), delta("svc_cache_misses_total", 0, last)
	x := rep.Extras
	x["service.server_ms.plan_cold"] = serverMS(0, "plan")
	x["service.server_ms.plan_warm"] = serverMS(1, "plan")
	x["service.server_ms.plan_herd"] = serverMS(2, "plan")
	x["service.server_ms.simulate"] = serverMS(3, "simulate")
	warm := rep.Samples["plan_warm"]
	var sum float64
	for _, v := range warm {
		sum += v
	}
	x["service.overhead_ms.plan_warm"] = Metric{Value: sum/float64(len(warm)) - x["service.server_ms.plan_warm"].Value, Unit: "ms", N: len(warm)}
	x["service.hit_frac"] = frac(hits / (hits + misses))
	x["service.join_frac"] = frac(delta("svc_coalesced_total", 0, last) / misses)
	x["service.rejected_frac"] = frac(delta("svc_rejected_total", 0, last) / float64(rep.Ops))
	// Coalescing makes this 1. A client that checks the cache just
	// before the leader's result lands there, but joins only after the
	// leader has left the coalescing group, computes a second time; under
	// CPU contention that window is wide enough to hit now and then.
	x["service.sweeps_per_herd_round"] = Metric{Value: delta("sweep_runs_total", 2, 3) / float64(rounds), Unit: "count", N: rounds}
	x["service.opt_evals_per_cold_plan"] = Metric{Value: delta("opt_evaluations_total", 0, 1) / float64(cold), Unit: "count", N: cold}
}

// latencyReports are the daemon latency percentiles a run reports from
// its pooled samples: the median, and the highest tail percentile the
// phase's sample count supports at full size.
var latencyReports = []struct {
	sample string
	p      float64
	name   string
}{
	{"plan_cold", 50, "plan_cold_p50_ms"},
	{"plan_cold", 99, "plan_cold_p99_ms"},
	{"plan_warm", 50, "plan_warm_p50_ms"},
	{"plan_warm", 99, "plan_warm_p99_ms"},
	{"plan_herd", 50, "plan_herd_p50_ms"},
	{"simulate", 50, "simulate_p50_ms"},
	{"simulate", 95, "simulate_p95_ms"},
}

// latencyMetrics reports each latency percentile the pooled samples
// support (at least minBeyond samples beyond it).
func latencyMetrics(pooled map[string][]float64) map[string]Metric {
	out := map[string]Metric{}
	for _, l := range latencyReports {
		xs := pooled[l.sample]
		if v, ok := percentile(xs, l.p); ok {
			out[l.name] = Metric{Value: v, Unit: "ms", N: len(xs)}
		}
	}
	return out
}

// daemon is one running mlckptd.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once the daemon's stdout hits EOF
}

// startDaemon starts mlckptd on a free loopback port and returns once
// /readyz answers 200, with the time from exec to that answer.
func startDaemon(ctx context.Context, client *http.Client, path string, traced bool) (*daemon, time.Duration, error) {
	args := []string{"-listen", "127.0.0.1:0", "-workers", strconv.Itoa(workers), "-slots", "1"}
	cmd := exec.Command(path, args...)
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	if traced {
		cmd.Args = append(cmd.Args, "-log-json")
		cmd.Stderr = io.Discard
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, br)
		close(d.drained)
	}()
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "mlckptd: serving on ")
	if err != nil || !ok {
		d.kill()
		return nil, 0, fmt.Errorf("mlckptd did not start (stdout %q): %v", line, err)
	}
	d.base = addr
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			d.kill()
			return nil, 0, err
		}
		resp, err := client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if ctx.Err() != nil || time.Since(start) > 30*time.Second {
			d.kill()
			return nil, 0, errors.New("mlckptd never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit cleanly.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.drained:
	case <-time.After(time.Minute):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	return d.cmd.Wait()
}

// kill ends a daemon that stop has not ended.
func (d *daemon) kill() {
	if d.cmd.ProcessState != nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.drained
	_ = d.cmd.Wait()
}
