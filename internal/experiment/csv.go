package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"teleadjust/internal/stats"
)

// writeCSV writes the header and rows as one CSV table; what names the
// table in a write error.
func writeCSV(w io.Writer, what string, header []string, rows [][]string) error {
	if err := csv.NewWriter(w).WriteAll(append([][]string{header}, rows...)); err != nil {
		return fmt.Errorf("%s csv: %w", what, err)
	}
	return nil
}

// ftoa formats a float cell.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// byKeyRows renders each key of b as a row: the prefix cells, then
// key, sample count, and mean.
func byKeyRows(b *stats.ByKey, prefix ...string) [][]string {
	var rows [][]string
	for _, k := range b.Keys() {
		s := b.Get(k)
		rows = append(rows, append(append([]string{}, prefix...),
			strconv.Itoa(k), strconv.Itoa(s.Count()), ftoa(s.Mean())))
	}
	return rows
}

// WriteControlCSV exports every per-hop series of a control study with a
// figure label column, one file for all of Fig 7/8/10.
func WriteControlCSV(w io.Writer, res *ControlResult) error {
	var rows [][]string
	rows = append(rows, byKeyRows(res.PDRByHop, "fig7_pdr", res.Proto, res.Scenario)...)
	rows = append(rows, byKeyRows(res.LatencyByHop, "fig10_latency", res.Proto, res.Scenario)...)
	rows = append(rows, byKeyRows(res.ATHX.MeanYForX(), "fig8_athx", res.Proto, res.Scenario)...)
	rows = append(rows,
		[]string{"table3_tx", res.Proto, res.Scenario, "0", strconv.Itoa(res.Sent), ftoa(res.TxPerPacket)},
		[]string{"fig9_duty", res.Proto, res.Scenario, "0", strconv.Itoa(res.Sent), ftoa(res.AvgDutyCycle)})
	return writeCSV(w, "control", []string{"figure", "protocol", "scenario", "key", "n", "mean"}, rows)
}

// WriteThroughputCSV exports a throughput sweep, one row per load point:
// the offered-load vs goodput curve with latency percentiles and the
// command plane's loss accounting.
func WriteThroughputCSV(w io.Writer, res *ThroughputResult) error {
	header := []string{"protocol", "scenario", "mode", "dist", "point",
		"ops", "ok", "failed", "unroutable", "rejected", "expired", "retries", "unresolved",
		"offered_ops_s", "goodput_ops_s", "lat_p50_s", "lat_p95_s", "lat_p99_s", "wait_mean_s"}
	var rows [][]string
	for _, pt := range res.Points {
		rows = append(rows, []string{res.Proto, res.Scenario, res.Mode, res.Dist, pt.Label,
			strconv.Itoa(pt.Ops), strconv.Itoa(pt.OK), strconv.Itoa(pt.Failed),
			strconv.Itoa(pt.Unroutable), strconv.Itoa(pt.Rejected), strconv.Itoa(pt.Expired),
			strconv.Itoa(pt.Retries), strconv.Itoa(pt.Unresolved),
			ftoa(pt.Offered), ftoa(pt.Goodput),
			ftoa(pt.Latency.P50()), ftoa(pt.Latency.P95()), ftoa(pt.Latency.P99()), ftoa(pt.QueueWait.Mean())})
	}
	return writeCSV(w, "throughput", header, rows)
}

// WriteServiceCSV exports a command-service study, one row per rate
// point with paired baseline/service columns.
func WriteServiceCSV(w io.Writer, res *ServiceResult) error {
	header := []string{"protocol", "scenario", "dist", "point", "ops",
		"offered_base_ops_s", "offered_svc_ops_s",
		"goodput_base_ops_s", "goodput_svc_ops_s", "speedup",
		"ok_base", "ok_svc", "failed_base", "failed_svc",
		"unresolved_base", "unresolved_svc",
		"shed", "delayed", "batches", "batched_cmds", "mean_batch",
		"cache_hits", "cache_misses", "cache_hit_rate",
		"lat_base_p50_s", "lat_svc_p50_s", "lat_base_p95_s", "lat_svc_p95_s"}
	var rows [][]string
	for _, pt := range res.Points {
		rows = append(rows, []string{res.Proto, res.Scenario, res.Dist, pt.Label,
			strconv.Itoa(pt.Ops),
			ftoa(pt.Base.Offered), ftoa(pt.Svc.Offered),
			ftoa(pt.Base.Goodput), ftoa(pt.Svc.Goodput), ftoa(pt.Speedup()),
			strconv.Itoa(pt.Base.OK), strconv.Itoa(pt.Svc.OK),
			strconv.Itoa(pt.Base.Failed), strconv.Itoa(pt.Svc.Failed),
			strconv.Itoa(pt.Base.Unresolved), strconv.Itoa(pt.Svc.Unresolved),
			strconv.Itoa(pt.Shed), strconv.Itoa(pt.Delayed),
			strconv.Itoa(pt.Batches), strconv.Itoa(pt.BatchedCmds), ftoa(pt.MeanBatch()),
			strconv.Itoa(pt.CacheHits), strconv.Itoa(pt.CacheMisses), ftoa(pt.CacheHitRate()),
			ftoa(pt.Base.Latency.P50()), ftoa(pt.Svc.Latency.P50()),
			ftoa(pt.Base.Latency.P95()), ftoa(pt.Svc.Latency.P95())})
	}
	return writeCSV(w, "service", header, rows)
}

// WriteCodingSchemesCSV exports codec comparisons under one header, one
// row per (scenario, codec) cell.
func WriteCodingSchemesCSV(w io.Writer, results ...*CodingSchemesResult) error {
	header := []string{"scenario", "codec", "converged",
		"len_p50", "len_p95", "len_max", "len_mean",
		"churn", "code_changes", "header_bytes", "control_sends", "hdr_bytes_per_send",
		"sent", "delivered", "skipped", "pdr"}
	var rows [][]string
	for _, res := range results {
		for _, c := range res.Codecs {
			rows = append(rows, []string{res.Scenario, c.Codec, ftoa(c.Converged),
				ftoa(c.CodeLen.P50()), ftoa(c.CodeLen.P95()), ftoa(c.CodeLen.Max()), ftoa(c.CodeLen.Mean()),
				strconv.FormatUint(c.Churn, 10), strconv.FormatUint(c.CodeChanges, 10),
				strconv.FormatUint(c.HeaderBytes, 10), strconv.FormatUint(c.ControlSends, 10),
				ftoa(c.HeaderBytesPerSend()),
				strconv.Itoa(c.Sent), strconv.Itoa(c.Delivered), strconv.Itoa(c.Skipped), ftoa(c.PDR())})
		}
	}
	return writeCSV(w, "coding schemes", header, rows)
}

// WriteCodingCSV exports a coding study's per-hop series.
func WriteCodingCSV(w io.Writer, res *CodingResult) error {
	var rows [][]string
	rows = append(rows, byKeyRows(res.CodeLenByHop, "fig6a_codelen", res.Scenario)...)
	rows = append(rows, byKeyRows(res.ChildrenByHop, "fig6b_children", res.Scenario)...)
	rows = append(rows, byKeyRows(res.ReverseVsCTP.MeanYForX(), "fig6d_revhops", res.Scenario)...)
	rows = append(rows, []string{"fig6c_convergence", res.Scenario, "0",
		strconv.Itoa(res.ConvergenceBeacons.Count()), ftoa(res.ConvergenceBeacons.Mean())})
	return writeCSV(w, "coding", []string{"figure", "scenario", "key", "n", "mean"}, rows)
}
