package core

import (
	"errors"
	"sync"
	"time"
)

// RunnerConfig configures the pool's background tasks (§3.2: "the runtime
// must execute at least two background tasks: one for adjusting the size
// of shared regions ... and another to find opportunities for buffer
// migration").
type RunnerConfig struct {
	// BalanceEvery is the locality-balancing period (0 disables).
	BalanceEvery time.Duration
	// SizeEvery is the sizing-optimization period (0 disables).
	SizeEvery time.Duration
	// Loads supplies the current per-server demands and the required pool
	// size for each sizing round. Required when SizeEvery > 0.
	Loads func() (loads []ServerLoad, requiredPool int64)
	// OnError observes background-task errors (optional).
	OnError func(error)
	// OnRound, if set, runs on the task's goroutine after every completed
	// round of either kind, after the round's effects and error report are
	// visible. It lets tests wait on round completion deterministically
	// instead of polling the wall clock.
	OnRound func()
}

// Runner owns the background goroutines of a pool.
type Runner struct {
	stop chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	balances uint64
	sizings  uint64
}

// StartBackground launches the configured background tasks and returns
// their handle. Stop must be called to terminate them.
func (p *Pool) StartBackground(cfg RunnerConfig) (*Runner, error) {
	if cfg.BalanceEvery == 0 && cfg.SizeEvery == 0 {
		return nil, errors.New("core: no background task enabled")
	}
	if cfg.SizeEvery > 0 && cfg.Loads == nil {
		return nil, errors.New("core: sizing task needs a Loads callback")
	}
	r := &Runner{stop: make(chan struct{})}
	report := func(err error) {
		if err != nil && cfg.OnError != nil {
			cfg.OnError(err)
		}
	}
	if cfg.BalanceEvery > 0 {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			t := time.NewTicker(cfg.BalanceEvery)
			defer t.Stop()
			for {
				select {
				case <-r.stop:
					return
				case <-t.C:
					_, err := p.BalanceOnce()
					report(err)
					r.mu.Lock()
					r.balances++
					r.mu.Unlock()
					if cfg.OnRound != nil {
						cfg.OnRound()
					}
				}
			}
		}()
	}
	if cfg.SizeEvery > 0 {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			t := time.NewTicker(cfg.SizeEvery)
			defer t.Stop()
			for {
				select {
				case <-r.stop:
					return
				case <-t.C:
					loads, required := cfg.Loads()
					_, err := p.SizeOnce(loads, required)
					report(err)
					r.mu.Lock()
					r.sizings++
					r.mu.Unlock()
					if cfg.OnRound != nil {
						cfg.OnRound()
					}
				}
			}
		}()
	}
	return r, nil
}

// Rounds reports completed balance and sizing rounds.
func (r *Runner) Rounds() (balances, sizings uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.balances, r.sizings
}

// Stop terminates the background tasks and waits for them to exit. It is
// idempotent.
func (r *Runner) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
}
