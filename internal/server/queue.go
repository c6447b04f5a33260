package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"macrochip/internal/harness"
)

// Job states, in lifecycle order. A job that is still in the queue when the
// daemon drains is aborted rather than run, bounding shutdown time to the
// in-flight simulations.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	StatusAborted = "aborted"
)

// maxFinishedJobs bounds how many terminal jobs the daemon remembers. Past
// it the oldest terminal jobs are forgotten, and their IDs answer 404 like
// unknown ones; queued and running jobs are never evicted. With a cache
// configured, resubmitting an evicted config is a cache hit.
const maxFinishedJobs = 1024

// Terminal reports whether a status will never change again.
func Terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusAborted
}

var (
	// ErrQueueFull is returned by Submit when the bounded queue has no slot;
	// clients should back off and retry.
	ErrQueueFull = errors.New("experiment queue full")
	// ErrDraining is returned by Submit once a graceful shutdown began.
	ErrDraining = errors.New("server draining, not accepting new experiments")
)

// job is one submitted experiment. All mutable fields are guarded by the
// queue mutex; done closes exactly once, when the status turns terminal.
type job struct {
	id       string
	cfg      ExperimentConfig
	status   string
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	result   *Result
	done     chan struct{}
}

// JobView is the JSON shape of one job's status, the payload of
// GET /v1/experiments/{id} and of every NDJSON progress line.
type JobView struct {
	ID       string           `json:"id"`
	Config   ExperimentConfig `json:"config"`
	Status   string           `json:"status"`
	Error    string           `json:"error,omitempty"`
	Created  time.Time        `json:"created"`
	Started  *time.Time       `json:"started,omitempty"`
	Finished *time.Time       `json:"finished,omitempty"`
}

func (j *job) viewLocked() JobView {
	v := JobView{
		ID:      j.id,
		Config:  j.cfg,
		Status:  j.status,
		Error:   j.errMsg,
		Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// Queue is the bounded experiment queue plus its worker pool. Submissions
// are non-blocking: a full queue rejects immediately (the HTTP layer maps
// that to 503 + Retry-After) rather than holding request goroutines. All
// workers execute on one shared harness.Runner, so concurrent identical
// experiments rendezvous in Runner.Cache's single-flight layer and the
// simulation runs once.
type Queue struct {
	runner harness.Runner
	log    *slog.Logger
	now    func() time.Time

	pending chan *job
	stop    chan struct{}
	wg      sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	terminal int // terminal jobs in jobs, kept <= maxFinishedJobs
	seq      int
	draining bool
}

func newQueue(runner harness.Runner, depth, workers int, log *slog.Logger, now func() time.Time) *Queue {
	q := &Queue{
		runner:  runner,
		log:     log,
		now:     now,
		pending: make(chan *job, depth),
		stop:    make(chan struct{}),
		jobs:    map[string]*job{},
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit enqueues one normalized config, returning the queued job's view.
func (q *Queue) Submit(cfg ExperimentConfig) (JobView, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return JobView{}, ErrDraining
	}
	q.seq++
	j := &job{
		id:      fmt.Sprintf("exp-%06d", q.seq),
		cfg:     cfg,
		status:  StatusQueued,
		created: q.now(),
		done:    make(chan struct{}),
	}
	select {
	case q.pending <- j:
	default:
		return JobView{}, ErrQueueFull
	}
	q.jobs[j.id] = j
	q.order = append(q.order, j.id)
	return j.viewLocked(), nil
}

// Get returns one job's status snapshot.
func (q *Queue) Get(id string) (JobView, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.viewLocked(), true
}

// List returns every job's status in submission order.
func (q *Queue) List() []JobView {
	q.mu.Lock()
	defer q.mu.Unlock()
	views := make([]JobView, 0, len(q.order))
	for _, id := range q.order {
		views = append(views, q.jobs[id].viewLocked())
	}
	return views
}

// Result returns a finished job's result (nil until the job is done).
func (q *Queue) Result(id string) (*Result, JobView, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, JobView{}, false
	}
	return j.result, j.viewLocked(), true
}

// Done returns a channel closed when the job reaches a terminal state.
func (q *Queue) Done(id string) (<-chan struct{}, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, false
	}
	return j.done, true
}

// Counts reports queue occupancy for /healthz and /v1/cache/stats.
func (q *Queue) Counts() (queued, running, finished int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.jobs {
		switch {
		case j.status == StatusQueued:
			queued++
		case j.status == StatusRunning:
			running++
		default:
			finished++
		}
	}
	return
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		// Prefer stopping: after the drain signal, queued jobs are aborted
		// by Drain rather than started here.
		select {
		case <-q.stop:
			return
		default:
		}
		select {
		case <-q.stop:
			return
		case j := <-q.pending:
			q.run(j)
		}
	}
}

// run executes one job, converting panics (including propagated expcache
// compute panics) into a failed job instead of a dead daemon.
func (q *Queue) run(j *job) {
	q.mu.Lock()
	if j.status != StatusQueued {
		// Drain's abort sweep claimed the job between the channel handoff
		// and here; its done channel is already closed.
		q.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = q.now()
	q.mu.Unlock()

	res, err := func() (res *Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("experiment panicked: %v", r)
			}
		}()
		return j.cfg.run(q.runner)
	}()

	q.mu.Lock()
	j.finished = q.now()
	if err != nil {
		j.status = StatusFailed
		j.errMsg = err.Error()
	} else {
		j.status = StatusDone
		j.result = res
	}
	elapsed := j.finished.Sub(j.started)
	status := j.status
	q.retireLocked()
	q.mu.Unlock()
	close(j.done)
	q.log.Info("experiment finished",
		"id", j.id, "kind", j.cfg.Kind, "status", status,
		"elapsed_ms", elapsed.Milliseconds())
}

// Drain performs the graceful-shutdown handshake: reject new submissions,
// let in-flight simulations finish, then abort jobs still sitting in the
// queue. It returns ctx.Err() if the in-flight work outlives the context.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	alreadyDraining := q.draining
	q.draining = true
	q.mu.Unlock()
	if !alreadyDraining {
		close(q.stop)
	}

	workersIdle := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(workersIdle)
	}()
	var err error
	select {
	case <-workersIdle:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Whatever never started is aborted; waiters on its done channel wake.
	q.mu.Lock()
	for _, j := range q.jobs {
		if j.status == StatusQueued {
			j.status = StatusAborted
			j.errMsg = "server shut down before the experiment started"
			j.finished = q.now()
			close(j.done)
			q.retireLocked()
		}
	}
	q.mu.Unlock()
	return err
}

// retireLocked counts one more terminal job and, past maxFinishedJobs,
// forgets the oldest terminal job in submission order. Each call adds one
// terminal job, so evicting one keeps the bound.
func (q *Queue) retireLocked() {
	q.terminal++
	if q.terminal <= maxFinishedJobs {
		return
	}
	for i, id := range q.order {
		if Terminal(q.jobs[id].status) {
			delete(q.jobs, id)
			q.order = slices.Delete(q.order, i, i+1)
			q.terminal--
			return
		}
	}
}

// Draining reports whether a drain has begun.
func (q *Queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}
