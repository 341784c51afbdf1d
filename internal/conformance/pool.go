package conformance

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// Pool hands out one Checker per campaign worker goroutine (checkers
// hold per-trial state and must observe sequential trials only) and
// aggregates their verdicts after the run. Plug Observer into
// sim.Campaign.ObserverFactory, or combine it with other observers via
// obs.Multi.
type Pool struct {
	scn sim.Scenario

	mu       sync.Mutex
	checkers []*Checker
}

// NewPool validates the scenario once and builds a checker pool for it.
func NewPool(scn sim.Scenario) (*Pool, error) {
	if _, err := NewChecker(scn); err != nil {
		return nil, err
	}
	return &Pool{scn: scn}, nil
}

// Observer implements sim.Campaign.ObserverFactory.
func (p *Pool) Observer(worker int) sim.Observer {
	c, err := NewChecker(p.scn)
	if err != nil {
		// NewPool validated the scenario; a failure here is a
		// programming error (the scenario was mutated after NewPool).
		panic(fmt.Sprintf("conformance: scenario invalidated after NewPool: %v", err))
	}
	p.mu.Lock()
	p.checkers = append(p.checkers, c)
	p.mu.Unlock()
	return c
}

// Trials returns the total number of invariant-checked trials.
func (p *Pool) Trials() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.checkers {
		n += c.TrialsChecked()
	}
	return n
}

// Events returns the total number of checked events.
func (p *Pool) Events() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.checkers {
		n += c.EventsChecked()
	}
	return n
}

// Err returns nil when every invariant held on every worker, or the
// first recorded violation annotated with the total count across
// workers. Call after the campaign finishes.
func (p *Pool) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	total := 0
	for _, c := range p.checkers {
		total += c.nviol
		if first == nil && c.Err() != nil {
			first = c.Violations()[0]
		}
	}
	if first == nil {
		return nil
	}
	if total > 1 {
		return fmt.Errorf("%w (%d violations total)", first, total)
	}
	return first
}
