package cmdsvc

import (
	"errors"
	"testing"
	"time"

	"teleadjust/internal/protocol"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/sink"
	"teleadjust/internal/telemetry"
)

// holdDispatcher parks every dispatch until the test resolves it, so
// backpressure tests can pin the scheduler's in-flight window open.
type holdDispatcher struct {
	uidSeq uint32
	cbs    []func(protocol.Result)
	dsts   []radio.NodeID
}

func (d *holdDispatcher) SendControl(dst radio.NodeID, app any, cb func(protocol.Result)) (uint32, error) {
	d.uidSeq++
	d.cbs = append(d.cbs, cb)
	d.dsts = append(d.dsts, dst)
	return d.uidSeq, nil
}

// resolveNext completes the oldest unresolved dispatch.
func (d *holdDispatcher) resolveNext(ok bool) {
	cb, dst := d.cbs[0], d.dsts[0]
	d.cbs, d.dsts = d.cbs[1:], d.dsts[1:]
	cb(protocol.Result{Dst: dst, OK: ok})
}

// newHeldService builds a service over a hold dispatcher with a 1-op
// scheduler window so each unresolved dispatch occupies the window.
func newHeldService(cfg Config) (*Service, *holdDispatcher) {
	eng := sim.NewEngine()
	d := &holdDispatcher{}
	svc := New(eng, d, sink.Config{Window: 1, PerGroup: 1, MaxQueue: 100}, cfg)
	return svc, d
}

func TestServiceShedAtQueueDepth(t *testing.T) {
	svc, _ := newHeldService(Config{QueueDepth: 3})
	tn := svc.Tenant("ops")
	var accepted, shed int
	for i := 0; i < 6; i++ {
		_, err := tn.Submit(radio.NodeID(2+i), "cmd", nil)
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrShed):
			shed++
		default:
			t.Fatal(err)
		}
	}
	// Submit 1 dispatches (in flight), 2-4 queue (depth 0,1,2), 5-6 shed
	// at depth 3.
	if accepted != 4 || shed != 2 {
		t.Fatalf("accepted=%d shed=%d, want 4/2", accepted, shed)
	}
	st := svc.Tenants()
	if len(st) != 1 || st[0].Submitted != 6 || st[0].Shed != 2 {
		t.Fatalf("tenant stats = %+v", st)
	}
	if svc.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", svc.Depth())
	}
}

func TestServiceDelayPolicyParksAndDrains(t *testing.T) {
	svc, d := newHeldService(Config{HighWater: 2, Policy: PolicyDelay})
	tn := svc.Tenant("ops")
	var done []radio.NodeID
	cb := func(o sink.Outcome) { done = append(done, o.Dst) }
	for i := 0; i < 4; i++ {
		tk, err := tn.Submit(radio.NodeID(2+i), "cmd", cb)
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 && tk != 0 {
			t.Fatalf("deferred submission got ticket %d, want 0", tk)
		}
	}
	if svc.DeferredLen() != 1 {
		t.Fatalf("deferred = %d, want 1", svc.DeferredLen())
	}
	st := svc.Tenants()[0]
	if st.Delayed != 1 || st.Shed != 0 {
		t.Fatalf("tenant stats = %+v", st)
	}
	// Resolving completions frees backlog; the parked command is admitted.
	for len(d.cbs) > 0 {
		d.resolveNext(true)
	}
	if svc.DeferredLen() != 0 {
		t.Fatalf("deferred = %d after drain, want 0", svc.DeferredLen())
	}
	if len(done) != 4 {
		t.Fatalf("%d outcomes, want 4 (deferred command never completed)", len(done))
	}
	if !svc.Quiesced() {
		t.Fatal("service not quiesced after all outcomes")
	}
	st = svc.Tenants()[0]
	if st.Completed != 4 || st.OK != 4 {
		t.Fatalf("tenant stats = %+v", st)
	}
}

func TestServiceQueueDepthCountsDeferred(t *testing.T) {
	svc, _ := newHeldService(Config{QueueDepth: 3, HighWater: 1, Policy: PolicyDelay})
	tn := svc.Tenant("ops")
	// 1 dispatches; 2-3 defer (depth 0 < 1? no: after 1 dispatch the queue
	// holds 0, so 2 dispatches too and queues; 3 defers at depth 1; 4
	// defers at depth 2; 5 sheds at depth 3).
	var shed int
	for i := 0; i < 5; i++ {
		if _, err := tn.Submit(radio.NodeID(2+i), "cmd", nil); errors.Is(err, ErrShed) {
			shed++
		}
	}
	if shed != 1 {
		t.Fatalf("shed = %d, want 1 (QueueDepth must count deferred submissions)", shed)
	}
}

func TestServiceCloseRefusesSubmissions(t *testing.T) {
	svc, d := newHeldService(Config{HighWater: 1, Policy: PolicyDelay})
	tn := svc.Tenant("ops")
	tn.Submit(2, "cmd", nil)
	tn.Submit(3, "cmd", nil) // queues
	tn.Submit(4, "cmd", nil) // defers
	if svc.DeferredLen() != 1 {
		t.Fatalf("deferred = %d", svc.DeferredLen())
	}
	svc.Close()
	// Close force-admits the deferred command past the high-water mark.
	if svc.DeferredLen() != 0 {
		t.Fatal("Close left deferred submissions parked")
	}
	if _, err := tn.Submit(5, "cmd", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	for len(d.cbs) > 0 {
		d.resolveNext(true)
	}
	if !svc.Quiesced() {
		t.Fatal("closed service not quiesced after resolution")
	}
}

func TestServiceTenantsIsolatedAndSorted(t *testing.T) {
	svc, d := newHeldService(Config{})
	svc.Tenant("zeta").Submit(2, "cmd", nil)
	svc.Tenant("alpha").Submit(3, "cmd", nil)
	svc.Tenant("alpha").Submit(4, "cmd", nil)
	for len(d.cbs) > 0 {
		d.resolveNext(true)
	}
	st := svc.Tenants()
	if len(st) != 2 || st[0].Name != "alpha" || st[1].Name != "zeta" {
		t.Fatalf("tenants = %+v", st)
	}
	if st[0].Submitted != 2 || st[0].Completed != 2 || st[1].Submitted != 1 {
		t.Fatalf("tenant counters = %+v", st)
	}
}

func TestServiceSubmitBatchTickets(t *testing.T) {
	// Window 1: the first submit goes in flight (outside Depth), the second
	// queues, the third hits the depth bound.
	svc, _ := newHeldService(Config{QueueDepth: 1})
	tickets, err := svc.SubmitBatch([]radio.NodeID{2, 3, 4}, "cmd", nil)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want first shed error", err)
	}
	if len(tickets) != 3 {
		t.Fatalf("tickets = %v", tickets)
	}
	if tickets[0] == 0 || tickets[1] == 0 {
		t.Fatalf("admitted tickets = %v, want nonzero", tickets[:2])
	}
	if tickets[2] != 0 {
		t.Fatalf("shed ticket = %d, want 0", tickets[2])
	}
}

func TestServiceCacheFollowsOutcomes(t *testing.T) {
	svc, d := newHeldService(Config{Cache: CacheConfig{TTL: time.Hour}})
	svc.Submit(2, "cmd", nil)
	d.resolveNext(true)
	if s := svc.CacheStats(); s.Confirms != 1 {
		t.Fatalf("cache stats after OK = %+v", s)
	}
	svc.Submit(2, "cmd", nil)
	d.resolveNext(false)
	if s := svc.CacheStats(); s.Invalidations != 1 {
		t.Fatalf("cache stats after failure = %+v", s)
	}
}

func TestServiceEmitsShedAndDelayEvents(t *testing.T) {
	svc, _ := newHeldService(Config{QueueDepth: 2, HighWater: 1, Policy: PolicyDelay})
	bus := telemetry.NewBus(nil)
	col := &collector{}
	bus.Subscribe(col, telemetry.LayerSink)
	svc.SetTelemetry(nil, bus, 1)
	tn := svc.Tenant("ops")
	tn.Submit(2, "cmd", nil) // dispatches
	tn.Submit(3, "cmd", nil) // queues (depth 0 < 1)
	tn.Submit(4, "cmd", nil) // defers at depth 1
	tn.Submit(5, "cmd", nil) // sheds at depth 2
	var delays, sheds int
	for _, ev := range col.evs {
		switch ev.Kind {
		case telemetry.KindSvcDelay:
			delays++
			if ev.Note != "ops" {
				t.Fatalf("delay event tenant = %q", ev.Note)
			}
		case telemetry.KindSvcShed:
			sheds++
			if ev.Dst != 5 {
				t.Fatalf("shed event dst = %d", ev.Dst)
			}
		}
	}
	if delays != 1 || sheds != 1 {
		t.Fatalf("events: %d delays, %d sheds", delays, sheds)
	}
}

func TestServiceZeroConfigTransparent(t *testing.T) {
	svc, d := newHeldService(Config{})
	var outcomes int
	for i := 0; i < 10; i++ {
		if _, err := svc.Submit(radio.NodeID(2+i), "cmd", func(sink.Outcome) { outcomes++ }); err != nil {
			t.Fatal(err)
		}
	}
	for len(d.cbs) > 0 {
		d.resolveNext(true)
	}
	if outcomes != 10 {
		t.Fatalf("outcomes = %d, want 10", outcomes)
	}
	if s := svc.BatcherStats(); s.Batches != 0 {
		t.Fatalf("zero config still batched: %+v", s)
	}
	if s := svc.CacheStats(); s != (CacheStats{}) {
		t.Fatalf("zero config has cache stats: %+v", s)
	}
}
