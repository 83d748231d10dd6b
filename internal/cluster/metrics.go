package cluster

import (
	"fmt"
	"io"
)

// WriteProm writes the coordinator's metric set in Prometheus text
// exposition format: the job lifecycle meters of its serve.Manager (the
// same metric names a single weserve daemon exposes, so dashboards point at
// either — result cache, retention, journal and recovery included), the
// exact fleet-wide charge meter, and per-worker gauges labeled by fleet
// index. Worker meters come from the last heartbeat (or stats scrape) — a
// scrape never blocks on the fleet.
func (co *Coordinator) WriteProm(w io.Writer) {
	co.mgr.WriteProm(w)
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("walknotwait_cluster_handoffs_total", "Jobs re-dispatched after losing their worker.", co.handoffs.Load())
	counter("walknotwait_cluster_shed_forwarded_total", "Worker-side 503 sheds relayed verbatim to clients.", co.shedForwarded.Load())

	sum := co.Summary(false)
	counter("walknotwait_queries_charged_total", "Fleet-wide query cost: sum of per-worker owned-unique meters (the paper's cost axis).", sum.FleetQueries)
	gauge("walknotwait_cluster_workers_live", "Fleet slots currently heartbeating.", float64(sum.WorkersLive))
	gauge("walknotwait_cluster_workers_expected", "Configured fleet size.", float64(sum.WorkersTotal))

	perWorker := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	perWorker("walknotwait_cluster_worker_up", "1 while the worker's heartbeats are fresh.")
	for _, ws := range sum.Workers {
		v := 0
		if ws.Up {
			v = 1
		}
		fmt.Fprintf(w, "walknotwait_cluster_worker_up{worker=\"%d\"} %d\n", ws.Index, v)
	}
	perWorker("walknotwait_cluster_worker_samples", "Samples produced by the worker since its start.")
	for _, ws := range sum.Workers {
		fmt.Fprintf(w, "walknotwait_cluster_worker_samples{worker=\"%d\"} %d\n", ws.Index, ws.Stats.Samples)
	}
	perWorker("walknotwait_cluster_worker_inflight", "Jobs currently running on the worker.")
	for _, ws := range sum.Workers {
		fmt.Fprintf(w, "walknotwait_cluster_worker_inflight{worker=\"%d\"} %d\n", ws.Index, ws.Stats.InFlight)
	}
	perWorker("walknotwait_cluster_worker_owned_unique", "Distinct partition-owned nodes first accessed through the worker (last reported value survives death).")
	for _, ws := range sum.Workers {
		fmt.Fprintf(w, "walknotwait_cluster_worker_owned_unique{worker=\"%d\"} %d\n", ws.Index, ws.OwnedUnique)
	}
	perWorker("walknotwait_cluster_worker_remote_fallbacks", "Non-owned lookups the worker served locally because the shard owner was unreachable.")
	for _, ws := range sum.Workers {
		fmt.Fprintf(w, "walknotwait_cluster_worker_remote_fallbacks{worker=\"%d\"} %d\n", ws.Index, ws.Stats.RemoteFallbacks)
	}
}
