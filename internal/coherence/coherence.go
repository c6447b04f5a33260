// Package coherence models the directory-based MOESI coherence traffic of
// the paper's CPU simulator (§5). The paper's network study does not model
// "the intricate details of the cache coherency protocol"; it generates,
// for every L2 miss, the full set of network messages the protocol needs to
// satisfy the request, with finite MSHRs throttling concurrency. This
// package does exactly that.
//
// A coherence operation (one L2 miss) unfolds as:
//
//  1. The requesting site sends a 16 B request to the block's home site.
//  2. The home performs a directory/L2 lookup (DirectoryLookupCycles).
//  3. Depending on the directory state:
//     a. No sharers: the home returns a 72 B data message. (2 messages)
//     b. Dirty owner, read miss: the home forwards a 16 B intervention to
//     the owner, which sends the 72 B data directly to the requester.
//     (3 messages)
//     c. Shared copies, write miss: the home returns data and sends a 16 B
//     invalidation to each of the k sharers; every sharer acknowledges
//     directly to the requester with a 16 B ack. The operation completes
//     when the data and all k acks have arrived. (2 + 2k messages)
//
// Latency per coherence operation — figure 8's metric — is measured from
// request issue (after MSHR acquisition) to operation completion.
package coherence

import (
	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/metrics"
	"macrochip/internal/sim"
)

// Op describes one coherence operation to perform.
type Op struct {
	// Requester is the missing site.
	Requester geometry.SiteID
	// Home is the directory site for the block.
	Home geometry.SiteID
	// Sharers are the sites holding copies (empty for an unshared miss).
	Sharers []geometry.SiteID
	// Write marks a write miss: sharers are invalidated and must ack. A
	// read miss with a non-empty Sharers list is a dirty-owner forward
	// (only Sharers[0] is consulted).
	Write bool
	// OnIssued runs when the operation acquires an MSHR and its request
	// enters the network. The CPU model resumes the core's trace here.
	OnIssued func()
	// OnComplete runs when the operation finishes; latency is measured
	// from issue (MSHR acquisition), matching figure 8.
	OnComplete func(latency sim.Time)
}

// Messages returns the total network messages this operation will generate
// — useful for tests and traffic estimates.
func (o *Op) Messages() int {
	switch {
	case len(o.Sharers) == 0:
		return 2
	case o.Write:
		return 2 + 2*len(o.Sharers)
	default:
		return 3
	}
}

// MemoryBackend resolves home-site data fetches that miss the on-package
// memory (see internal/memory): Access runs done.OnEvent(eng, arg) once the
// data is available at the home. A nil backend means data is always on
// package — the paper's §5 baseline.
type MemoryBackend interface {
	Access(site int, bytes int, done sim.Handler, arg sim.EventArg)
}

// Engine drives coherence operations over a network, enforcing the per-site
// MSHR limit.
type Engine struct {
	eng *sim.Engine
	p   core.Params
	net core.Network
	mem MemoryBackend

	// mshrFree[s] is the number of free MSHRs at site s; waiting[s] queues
	// operations that could not allocate one.
	mshrFree []int
	waiting  [][]*Op

	// Completed counts finished operations; LatencySum accumulates their
	// latencies for the figure-8 metric.
	Completed  uint64
	LatencySum sim.Time
	MaxLatency sim.Time

	// Retries counts request retransmissions after delivery timeouts;
	// Aborted counts operations abandoned after the retry budget ran out.
	// Both stay zero when Params.CoherenceTimeoutCycles is zero (the
	// perfect-network baseline).
	Retries uint64
	Aborted uint64

	// retryRNG jitters retransmission backoff so synchronized losses do
	// not resynchronize their retries; nil means no jitter (still fully
	// deterministic).
	retryRNG *sim.RNG

	// latHist records per-operation latency when a registry is attached
	// (nil otherwise; Observe on nil is a no-op).
	latHist *metrics.Histogram
}

// NewEngine returns a coherence engine bound to the network.
func NewEngine(eng *sim.Engine, p core.Params, net core.Network) *Engine {
	sites := p.Grid.Sites()
	e := &Engine{eng: eng, p: p, net: net,
		mshrFree: make([]int, sites), waiting: make([][]*Op, sites)}
	for s := range e.mshrFree {
		e.mshrFree[s] = p.MSHRsPerSite
	}
	return e
}

// SetMemory attaches an off-package memory backend. Home sites consult it
// whenever they must supply data that no cache owns.
func (e *Engine) SetMemory(m MemoryBackend) { e.mem = m }

// SetRetrySeed installs the seeded jitter stream for retransmission
// backoff. The stream derives purely from (seed, label), so runs stay
// reproducible at any harness worker count.
func (e *Engine) SetRetrySeed(seed int64) {
	e.retryRNG = sim.NewRNG(sim.DeriveSeed(seed, sim.StringLabel("coherence-retry")))
}

// Issue starts an operation, queueing for an MSHR if none is free.
func (e *Engine) Issue(op *Op) {
	s := int(op.Requester)
	if e.mshrFree[s] > 0 {
		e.mshrFree[s]--
		e.start(op)
		return
	}
	e.waiting[s] = append(e.waiting[s], op)
}

// OutstandingAt reports the used MSHRs at a site (tests).
func (e *Engine) OutstandingAt(s geometry.SiteID) int {
	return e.p.MSHRsPerSite - e.mshrFree[s]
}

// QueuedAt reports operations waiting for an MSHR at a site (tests).
func (e *Engine) QueuedAt(s geometry.SiteID) int { return len(e.waiting[s]) }

// MeanLatency returns the average latency per completed coherence operation
// (figure 8's y-axis).
func (e *Engine) MeanLatency() sim.Time {
	if e.Completed == 0 {
		return 0
	}
	return e.LatencySum / sim.Time(e.Completed)
}

// Instrument implements metrics.Instrumentable: aggregate MSHR-occupancy and
// MSHR-queue gauges, completed/retry/abort progress gauges, and a
// per-operation latency histogram.
func (e *Engine) Instrument(o metrics.Observer) {
	if o.Reg == nil {
		return
	}
	o.Reg.Gauge("coherence/mshr_used", func(sim.Time) float64 {
		total := 0
		for _, free := range e.mshrFree {
			total += e.p.MSHRsPerSite - free
		}
		return float64(total)
	})
	o.Reg.Gauge("coherence/mshr_queued", func(sim.Time) float64 {
		total := 0
		for _, q := range e.waiting {
			total += len(q)
		}
		return float64(total)
	})
	o.Reg.Gauge("coherence/completed", func(sim.Time) float64 {
		return float64(e.Completed)
	})
	o.Reg.Gauge("coherence/retries", func(sim.Time) float64 {
		return float64(e.Retries)
	})
	o.Reg.Gauge("coherence/aborted", func(sim.Time) float64 {
		return float64(e.Aborted)
	})
	e.latHist = o.Reg.Histogram("coherence/op_latency")
}

// tracker follows one operation's outstanding responses across (possibly
// retransmitted) attempts. Responses are tracked by identity — the data
// reply plus, for invalidating writes, one ack per sharer — so duplicate
// deliveries from overlapping attempts are idempotent and can never
// complete an operation early.
//
// The tracker carries its engine so the per-packet delivery handlers
// (reqArrival, dataDone — pointer conversions of the tracker itself) reach
// protocol state without capturing anything: one tracker allocation per
// operation replaces the former two-plus closures per message.
type tracker struct {
	e       *Engine
	op      *Op
	issued  sim.Time
	attempt int
	done    bool
	data    bool
	acks    []bool // per-sharer, only consulted for invalidating writes
}

func (t *tracker) complete() bool {
	if !t.data {
		return false
	}
	if t.op.Write {
		for _, a := range t.acks {
			if !a {
				return false
			}
		}
	}
	return true
}

func (e *Engine) start(op *Op) {
	if op.OnIssued != nil {
		op.OnIssued()
	}
	t := &tracker{e: e, op: op, issued: e.eng.Now(), acks: make([]bool, len(op.Sharers))}
	e.sendRequest(op, t)
	e.armTimeout(op, t)
}

// sendRequest launches (or relaunches) the request→lookup→response chain.
// The request packet's delivery handler is the tracker itself (pointer-
// shaped), so retransmissions allocate only the packet.
func (e *Engine) sendRequest(op *Op, t *tracker) {
	e.net.Inject(&core.Packet{
		Src: op.Requester, Dst: op.Home,
		Bytes: e.p.CtrlMsgBytes, Class: core.ClassRequest,
		Deliver: (*reqArrival)(t),
	})
}

// reqArrival fires when the request reaches the home site: it schedules the
// directory lookup, with the tracker riding the event arg so the per-request
// lookup delay schedules no closure either.
type reqArrival tracker

func (h *reqArrival) OnDeliver(_ *core.Packet, _ sim.Time) {
	t := (*tracker)(h)
	e := t.e
	e.eng.ScheduleCall(e.p.Cycles(e.p.DirectoryLookupCycles), (*lookupH)(e), sim.EventArg{Ptr: t})
}

// dataDone fires when the operation's data reply lands at the requester:
// idempotent under duplicate deliveries from retransmitted attempts.
type dataDone tracker

func (h *dataDone) OnDeliver(_ *core.Packet, at sim.Time) {
	t := (*tracker)(h)
	if t.done || t.data {
		return
	}
	t.data = true
	if t.complete() {
		t.e.finish(t, at)
	}
}

// fwdArrival fires when a dirty-owner intervention reaches the owner, which
// then supplies the data directly to the requester.
type fwdArrival tracker

func (h *fwdArrival) OnDeliver(_ *core.Packet, _ sim.Time) {
	t := (*tracker)(h)
	t.e.net.Inject(&core.Packet{
		Src: t.op.Sharers[0], Dst: t.op.Requester,
		Bytes: t.e.p.DataMsgBytes, Class: core.ClassData,
		Deliver: (*dataDone)(t),
	})
}

// ackChain carries one sharer's invalidate→ack leg: invArrival fires at the
// sharer (inject the ack), ackArrival fires at the requester (record it).
// One ackChain allocation per sharer replaces the former two closures per
// sharer; both handler shapes are free pointer conversions of it.
type ackChain struct {
	t  *tracker
	i  int             // sharer index in t.acks
	sh geometry.SiteID // the sharer site
}

type invArrival ackChain

func (h *invArrival) OnDeliver(_ *core.Packet, _ sim.Time) {
	c := (*ackChain)(h)
	e := c.t.e
	e.net.Inject(&core.Packet{
		Src: c.sh, Dst: c.t.op.Requester,
		Bytes: e.p.CtrlMsgBytes, Class: core.ClassAck,
		Deliver: (*ackArrival)(c),
	})
}

type ackArrival ackChain

func (h *ackArrival) OnDeliver(_ *core.Packet, at sim.Time) {
	c := (*ackChain)(h)
	t := c.t
	if t.done || t.acks[c.i] {
		return
	}
	t.acks[c.i] = true
	if t.complete() {
		t.e.finish(t, at)
	}
}

// memDone fires when the memory backend has fetched the tracker's line at
// the home, which then sends the data reply.
type memDone tracker

func (h *memDone) OnEvent(*sim.Engine, sim.EventArg) {
	t := (*tracker)(h)
	t.e.sendHomeData(t)
}

// lookupH fires when the home's directory lookup completes for the tracker
// in arg.Ptr; timeoutH fires that tracker's delivery-timeout check. Both are
// named pointer types over Engine, keeping the per-operation event chain
// closure-free.
type lookupH Engine

func (h *lookupH) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	e := (*Engine)(h)
	t := arg.Ptr.(*tracker)
	e.homeAction(t.op, t)
}

type timeoutH Engine

func (h *timeoutH) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	e := (*Engine)(h)
	t := arg.Ptr.(*tracker)
	if t.done {
		return
	}
	op := t.op
	st := e.net.Stats()
	if t.attempt >= e.p.CoherenceMaxRetries {
		t.done = true
		e.Aborted++
		st.AddAbort()
		e.releaseMSHR(int(op.Requester))
		if op.OnComplete != nil {
			op.OnComplete(e.eng.Now() - t.issued)
		}
		return
	}
	t.attempt++
	e.Retries++
	st.AddRetry()
	e.sendRequest(op, t)
	e.armTimeout(op, t)
}

// armTimeout schedules the delivery timeout for the tracker's current
// attempt: exponential backoff with optional seeded jitter, bounded by
// CoherenceMaxRetries, after which the operation aborts (the MSHR is
// released and OnComplete still fires, so callers never hang). A zero
// CoherenceTimeoutCycles disables the machinery entirely.
func (e *Engine) armTimeout(op *Op, t *tracker) {
	if e.p.CoherenceTimeoutCycles <= 0 {
		return
	}
	e.eng.ScheduleCall(core.Backoff(e.p.Cycles(e.p.CoherenceTimeoutCycles), t.attempt, e.retryRNG),
		(*timeoutH)(e), sim.EventArg{Ptr: t})
}

// finish records a completed operation the moment its last response lands.
func (e *Engine) finish(t *tracker, at sim.Time) {
	t.done = true
	lat := at - t.issued
	e.Completed++
	e.LatencySum += lat
	e.latHist.Observe(lat)
	if lat > e.MaxLatency {
		e.MaxLatency = lat
	}
	e.releaseMSHR(int(t.op.Requester))
	if t.op.OnComplete != nil {
		t.op.OnComplete(lat)
	}
}

// homeAction emits the directory's response messages. Every response packet
// carries a pointer-shaped delivery handler over the tracker (or an
// ackChain), so the whole response fan-out allocates no closures.
func (e *Engine) homeAction(op *Op, t *tracker) {
	switch {
	case len(op.Sharers) == 0:
		// Unshared: the home supplies data — from its on-package memory,
		// or after an off-package fetch when a memory backend is attached.
		if e.mem != nil {
			e.mem.Access(int(op.Home), e.p.DataMsgBytes, (*memDone)(t), sim.EventArg{})
		} else {
			e.sendHomeData(t)
		}
	case !op.Write:
		// Dirty owner: forward the intervention; the owner supplies data.
		e.net.Inject(&core.Packet{
			Src: op.Home, Dst: op.Sharers[0],
			Bytes: e.p.CtrlMsgBytes, Class: core.ClassInvalidate,
			Deliver: (*fwdArrival)(t),
		})
	default:
		// Write to shared data: data from home plus invalidations fanned
		// out to every sharer, each acknowledged to the requester.
		e.sendHomeData(t)
		for i, sh := range op.Sharers {
			c := &ackChain{t: t, i: i, sh: sh}
			e.net.Inject(&core.Packet{
				Src: op.Home, Dst: sh,
				Bytes: e.p.CtrlMsgBytes, Class: core.ClassInvalidate,
				Deliver: (*invArrival)(c),
			})
		}
	}
}

// sendHomeData injects the home→requester data reply.
func (e *Engine) sendHomeData(t *tracker) {
	e.net.Inject(&core.Packet{
		Src: t.op.Home, Dst: t.op.Requester,
		Bytes: e.p.DataMsgBytes, Class: core.ClassData,
		Deliver: (*dataDone)(t),
	})
}

// Writeback sends a fire-and-forget dirty-eviction data message to the
// evicted line's home site. It consumes no MSHR: victim writebacks drain
// through a dedicated buffer in the L2 (the usual design), so only the
// network bandwidth is charged.
func (e *Engine) Writeback(from, home geometry.SiteID) {
	e.net.Inject(&core.Packet{
		Src: from, Dst: home,
		Bytes: e.p.DataMsgBytes, Class: core.ClassData,
	})
}

func (e *Engine) releaseMSHR(s int) {
	if len(e.waiting[s]) > 0 {
		next := e.waiting[s][0]
		e.waiting[s] = e.waiting[s][1:]
		e.start(next)
		return
	}
	e.mshrFree[s]++
}
