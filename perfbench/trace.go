package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"teleadjust/internal/cmdsvc"
	"teleadjust/internal/core"
	"teleadjust/internal/ctp"
	"teleadjust/internal/experiment"
	"teleadjust/internal/fault"
	"teleadjust/internal/mac"
	"teleadjust/internal/protocol"
	"teleadjust/internal/radio"
	"teleadjust/internal/sink"
	"teleadjust/internal/telemetry"
)

// spanKind names a wrapped layer boundary.
type spanKind uint8

const (
	spanRadioUpcall spanKind = iota // radio.Handler → MAC
	spanCtpUpcall                   // mac.Upper → node → CTP-owned payload
	spanCoreUpcall                  // mac.Upper → node → control-protocol payload
	spanOracle                      // core.Oracle queries from the controller
	spanCoreSend                    // sink.Dispatcher calls from the batcher into core
	spanSubmit                      // generator → cmdsvc.Tenant.Submit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"radio.upcall", "ctp.upcall", "core.upcall", "core.oracle", "core.send", "cmdsvc.submit",
}

// span is one timed call across a wrapped boundary. Times are host
// nanoseconds since the tracer started; parent is the index of the
// enclosing span in the tracer's span list, or -1.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// maxKeptSpans caps the spans kept for the dump. Totals cover every span;
// a formation run makes tens of millions of radio upcalls, far more than
// a dump is useful for.
const maxKeptSpans = 200000

// open is one span on the call stack.
type open struct {
	kind   spanKind
	idx    int32 // index into spans, -1 when past the cap
	start  int64
	nested int64 // time covered by child spans
}

// tracer records spans at the wrapped boundaries: inclusive and self
// (child-exclusive) host time and call counts per kind, plus the first
// maxKeptSpans spans for the dump. The simulation is single-threaded, so
// a plain stack tracks nesting.
type tracer struct {
	t0      time.Time
	stack   []open
	spans   []span
	dropped int
	incl    [numSpanKinds]int64
	self    [numSpanKinds]int64
	calls   [numSpanKinds]uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(k spanKind) {
	now := int64(time.Since(t.t0))
	idx := int32(-1)
	if len(t.spans) < maxKeptSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{kind: k, parent: parent, start: now})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, open{kind: k, idx: idx, start: now})
}

func (t *tracer) end() {
	now := int64(time.Since(t.t0))
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	d := now - o.start
	t.incl[o.kind] += d
	t.self[o.kind] += d - o.nested
	t.calls[o.kind]++
	if o.idx >= 0 {
		t.spans[o.idx].end = now
	}
	if n > 0 {
		t.stack[n-1].nested += d
	}
}

// selfSum is the host time covered by all top-level spans: the sum of
// every kind's self time.
func (t *tracer) selfSum() time.Duration {
	var s int64
	for _, v := range t.self {
		s += v
	}
	return time.Duration(s)
}

// writeSpans dumps the kept spans as tab-separated
// index/name/parent/start_ns/end_ns lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# spans kept %d, dropped past the cap %d\n", len(t.spans), t.dropped)
	fmt.Fprintln(w, "idx\tname\tparent\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", i, spanNames[s.kind], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// radioWrap times the medium's upcalls into a node's MAC.
type radioWrap struct {
	inner radio.Handler
	tr    *tracer
}

func (w *radioWrap) OnFrame(f *radio.Frame) {
	w.tr.begin(spanRadioUpcall)
	w.inner.OnFrame(f)
	w.tr.end()
}

func (w *radioWrap) OnTxDone() {
	w.tr.begin(spanRadioUpcall)
	w.inner.OnTxDone()
	w.tr.end()
}

// upperWrap times the MAC's upcalls into the node runtime, attributed to
// the payload's owner: CTP for beacons and data, the control protocol for
// everything else.
type upperWrap struct {
	inner mac.Upper
	ctp   *ctp.CTP
	tr    *tracer
}

func (w *upperWrap) kind(f *radio.Frame) spanKind {
	if w.ctp.Owns(f.Payload) {
		return spanCtpUpcall
	}
	return spanCoreUpcall
}

func (w *upperWrap) Classify(f *radio.Frame) mac.Classification {
	w.tr.begin(w.kind(f))
	c := w.inner.Classify(f)
	w.tr.end()
	return c
}

func (w *upperWrap) Deliver(f *radio.Frame) {
	w.tr.begin(w.kind(f))
	w.inner.Deliver(f)
	w.tr.end()
}

func (w *upperWrap) OnSendDone(f *radio.Frame, acker radio.NodeID, ok bool) {
	w.tr.begin(w.kind(f))
	w.inner.OnSendDone(f, acker, ok)
	w.tr.end()
}

// oracleWrap times the controller's topology-oracle queries.
type oracleWrap struct {
	inner core.Oracle
	tr    *tracer
}

func (w *oracleWrap) NeighborsOf(id radio.NodeID) []radio.NodeID {
	w.tr.begin(spanOracle)
	out := w.inner.NeighborsOf(id)
	w.tr.end()
	return out
}

func (w *oracleWrap) LinkQuality(a, b radio.NodeID) float64 {
	w.tr.begin(spanOracle)
	q := w.inner.LinkQuality(a, b)
	w.tr.end()
	return q
}

// dispatchWrap times the command service's calls into the sink's
// TeleAdjusting engine. It forwards every dispatch capability the engine
// has: cmdsvc.NewBatcher discovers batching (SendControlBatch) and
// rescue suppression (SendControlWith) by type assertion on the
// dispatcher it is handed, so a wrapper without them would silently turn
// both off. The engine has no SendControlRetry — re-dispatch routing is
// the batcher's own sink.RetryAware capability — so neither has the
// wrapper.
type dispatchWrap struct {
	e  *core.Engine
	tr *tracer
}

var _ sink.Dispatcher = (*dispatchWrap)(nil)

func (w *dispatchWrap) SendControl(dst radio.NodeID, app any, cb func(protocol.Result)) (uint32, error) {
	w.tr.begin(spanCoreSend)
	uid, err := w.e.SendControl(dst, app, cb)
	w.tr.end()
	return uid, err
}

func (w *dispatchWrap) SendControlWith(dst radio.NodeID, app any, opts core.SendOpts, cb func(protocol.Result)) (uint32, error) {
	w.tr.begin(spanCoreSend)
	uid, err := w.e.SendControlWith(dst, app, opts, cb)
	w.tr.end()
	return uid, err
}

func (w *dispatchWrap) SendControlBatch(reqs []core.BatchRequest) ([]uint32, error) {
	w.tr.begin(spanCoreSend)
	uids, err := w.e.SendControlBatch(reqs)
	w.tr.end()
	return uids, err
}

// submitter is the generator's view of a command-service tenant.
type submitter interface {
	Submit(dst radio.NodeID, app any, done func(sink.Outcome)) (uint32, error)
}

// submitWrap times the generator's submissions into the command service.
type submitWrap struct {
	inner *cmdsvc.Tenant
	tr    *tracer
}

func (w *submitWrap) Submit(dst radio.NodeID, app any, done func(sink.Outcome)) (uint32, error) {
	w.tr.begin(spanSubmit)
	tk, err := w.inner.Submit(dst, app, done)
	w.tr.end()
	return tk, err
}

// eventCounter counts telemetry events per layer.
type eventCounter struct {
	n [numLayers]uint64
}

// layers lists the telemetry layers by the metric suffix they report as.
var layers = []struct {
	l    telemetry.Layer
	name string
}{
	{telemetry.LayerRadio, "radio"},
	{telemetry.LayerMAC, "mac"},
	{telemetry.LayerCore, "core"},
	{telemetry.LayerRun, "run"},
	{telemetry.LayerSink, "sink"},
	{telemetry.LayerCoding, "coding"},
}

// numLayers bounds telemetry.Layer values: the bus keeps its layer mask
// in a uint8.
const numLayers = 8

func (c *eventCounter) Consume(ev telemetry.Event) {
	if int(ev.Layer) < numLayers {
		c.n[ev.Layer]++
	}
}

// instrument is what a traced run adds to one network: the timing
// wrappers at the radio→MAC, MAC→protocol and controller→oracle
// boundaries, a per-layer telemetry event counter, and the invariant
// oracle on the radio layer.
type instrument struct {
	tr     *tracer
	events *eventCounter
	oracle *fault.Oracle // the current network's
	// violations sums the oracle findings of every checked network;
	// samples keeps the first few for the report.
	violations int
	samples    []string
}

func newInstrument() *instrument {
	return &instrument{tr: newTracer(), events: &eventCounter{}}
}

// attach wraps the network's boundaries. rescue mirrors the protocol's
// core.Config.Rescue for the oracle's Re-Tele invariant.
func (in *instrument) attach(net *experiment.Net, tele core.Config, rescue bool) {
	for i, st := range net.Stacks {
		net.Medium.Radio(radio.NodeID(i)).SetHandler(&radioWrap{inner: st.Mac, tr: in.tr})
		st.Mac.SetUpper(&upperWrap{inner: st.Node, ctp: st.Ctp, tr: in.tr})
	}
	if te := net.SinkTele(); te != nil {
		te.SetOracle(&oracleWrap{inner: net.Oracle(), tr: in.tr})
	}
	ls := make([]telemetry.Layer, len(layers))
	for i, l := range layers {
		ls[i] = l.l
	}
	net.Bus.Subscribe(in.events, ls...)
	orc := fault.NewOracle(fault.OracleConfig{
		NumNodes:       net.Dep.Len(),
		Sink:           net.Sink,
		RetryRounds:    tele.RetryRounds,
		Backtracks:     tele.Backtracks,
		ControlTimeout: tele.ControlTimeout,
		RescueEnabled:  rescue,
	})
	orc.TeleAt = net.Tele
	orc.Alive = net.Alive
	orc.Now = net.Eng.Now
	net.Bus.Subscribe(orc, telemetry.LayerRadio)
	in.oracle = orc
}

// check runs the current network's end-of-run invariant check. Call it
// once per network, after its run and before the next attach.
func (in *instrument) check() {
	vs := in.oracle.Check()
	in.violations += len(vs)
	for _, v := range vs {
		if len(in.samples) < 5 {
			in.samples = append(in.samples, v.String())
		}
	}
	in.oracle = nil
}
