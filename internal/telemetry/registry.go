package telemetry

// Registry is an empty placeholder left from the retired metrics
// registry: layers report counters through their own Stats() accessors
// and events through the Bus, and nothing reads or writes a Registry.
// The type stays only because the benchmark harness under perfbench/
// still passes Net.Metrics to cmdsvc.Service.SetTelemetry; it goes with
// that harness's next change.
type Registry struct{}
