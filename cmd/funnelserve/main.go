// Command funnelserve runs FUNNEL as a network service (§5's deployed
// prototype): agents publish 1-minute KPI measurements to the ingest
// port, the operations team registers software changes over the admin
// port (one JSON object per line), other systems may subscribe to the
// measurement stream, and finished assessments print to stdout as each
// change's observation window completes.
//
//	funnelserve -ingest :7101 -subscribe :7102 -admin :7103 \
//	    -server-metrics mem.util,cpu.ctxswitch \
//	    -instance-metrics pv.count,rt.delay -history 7
//
// Register a change:
//
//	echo '{"id":"chg-1","type":"upgrade","service":"kv.cache",
//	       "servers":["srv-1"],"at":"2015-12-03T12:00:00Z"}' | nc host 7103
//
// The -debug address serves the telemetry surface: /metrics (expvar
// JSON with pipeline stage histograms; ?format=prom for the Prometheus
// text exposition), /metrics/history (the self-scrape ring cmd/funneltop
// renders), /debug/pprof/* and /traces/<change-id> (the per-KPI
// assessment trace). Structured logging is tuned with -v (0/1/2) and
// -log-json.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/funnel"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	var (
		ingest    = flag.String("ingest", "127.0.0.1:7101", "measurement ingest listen address")
		subscribe = flag.String("subscribe", "127.0.0.1:7102", "subscription push listen address (empty = off)")
		admin     = flag.String("admin", "127.0.0.1:7103", "change-registration listen address")
		history   = flag.Int("history", 7, "days of history kept for the seasonal DiD baseline")
		serverM   = flag.String("server-metrics", "mem.util,cpu.ctxswitch", "comma-separated server metrics")
		instM     = flag.String("instance-metrics", "", "comma-separated instance metrics")
		epoch     = flag.String("epoch", "", "store epoch (RFC3339; default now − history − 1 day)")
		asJSON    = flag.Bool("json", false, "emit reports as JSON instead of text")
		debug     = flag.String("debug", "127.0.0.1:7104", "telemetry HTTP listen address: /metrics, /debug/pprof/*, /traces/<id> (empty = off)")
		upstream  = flag.String("upstream", "", "subscribe-port address of another funnelserve to mirror measurements from (reconnects with backoff; empty = off)")
		data      = flag.String("data", "", "directory for write-ahead persistence: every measurement is logged before ingest acks and a restart replays to the exact pre-crash store (empty = in-memory only)")
		shards    = flag.Int("shards", monitor.StoreShards, "store lock-stripe count")
		verbose   = flag.Int("v", 0, "log verbosity to stderr: 0 = off, 1 = info, 2 = debug")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as JSON (one object per line) instead of text")
		histStep  = flag.Duration("history-step", obs.DefaultHistoryStep, "metrics-history self-scrape cadence (/metrics/history)")
		histSpan  = flag.Duration("history-retention", obs.DefaultHistoryRetention, "metrics-history span kept in memory")
		fsck      = flag.Bool("fsck", false, "verify the -data directory (snapshot CRCs, WAL framing) and exit: 0 clean, 1 damage found")
		fsckFix   = flag.Bool("fsck-repair", false, "with -fsck: drop quarantined chunks as explicit gaps and rewrite a clean snapshot")
		streamWrk = flag.Int("stream-workers", 0, "scoring worker goroutines (0 = default)")
		streamQ   = flag.Int("stream-queue", 0, "bounded advance-queue depth; overflow sheds to the batch sweep (0 = default)")
	)
	flag.Parse()

	if *fsck || *fsckFix {
		os.Exit(runFsck(*data, *fsckFix))
	}

	var logger *slog.Logger
	if *verbose > 0 {
		level := slog.LevelInfo
		if *verbose >= 2 {
			level = slog.LevelDebug
		}
		logger = obs.NewLogger(os.Stderr, level, *logJSON)
	}

	start := time.Now().UTC().Truncate(time.Minute).AddDate(0, 0, -*history-1)
	if *epoch != "" {
		t, err := time.Parse(time.RFC3339, *epoch)
		if err != nil {
			fmt.Fprintln(os.Stderr, "funnelserve: bad -epoch:", err)
			os.Exit(2)
		}
		start = t
	}
	var store *monitor.Store
	if *data != "" {
		var err error
		store, err = monitor.OpenPersistent(*data, start, time.Minute, monitor.PersistOptions{Shards: *shards})
		if err != nil {
			fmt.Fprintln(os.Stderr, "funnelserve: open data dir:", err)
			os.Exit(1)
		}
		if rec := store.Recovered(); rec.SnapshotSeries > 0 || rec.WALRecords > 0 || rec.TornTails > 0 {
			ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
			fmt.Printf("funnelserve: recovered %d series from snapshot, %d WAL records from %d bytes in %d log generations (%d torn tails discarded) in %v (snapshot %v, replay %v, attach %v)\n",
				rec.SnapshotSeries, rec.WALRecords, rec.LogBytes, rec.Generations, rec.TornTails,
				ms(rec.Total()), ms(rec.SnapshotTime), ms(rec.ReplayTime), ms(rec.AttachTime))
		}
		start = store.Start() // a recovered epoch wins over the flag
	} else {
		store = monitor.NewStoreShards(start, time.Minute, *shards)
	}
	defer store.Close()

	d, err := daemon.Start(daemon.Config{
		Store: store,
		Pipeline: funnel.Config{
			ServerMetrics:   splitList(*serverM),
			InstanceMetrics: splitList(*instM),
			HistoryDays:     *history,
		},
		IngestAddr:       *ingest,
		SubscribeAddr:    *subscribe,
		AdminAddr:        *admin,
		DebugAddr:        *debug,
		Logger:           logger,
		HistoryStep:      *histStep,
		HistoryRetention: *histSpan,
		StreamWorkers:    *streamWrk,
		StreamQueue:      *streamQ,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "funnelserve:", err)
		os.Exit(1)
	}
	defer d.Close()
	col := d.Collector()

	fmt.Printf("funnelserve: ingest=%v subscribe=%v admin=%v debug=%v epoch=%s history=%dd\n",
		d.IngestAddr(), d.SubscribeAddr(), d.AdminAddr(), d.DebugAddr(), start.Format(time.RFC3339), *history)

	// Mirror another funnelserve's measurement stream into the local
	// store over a reconnecting subscription: flaps redial with backoff
	// and resume from the last seen bin, so a follower daemon survives
	// leader restarts without losing stored bins.
	if *upstream != "" {
		cli, err := monitor.DialConfig(*upstream, monitor.ClientConfig{Reconnect: true, Obs: col})
		if err != nil {
			fmt.Fprintln(os.Stderr, "funnelserve: upstream dial:", err)
			os.Exit(1)
		}
		defer cli.Close()
		go func() {
			for m := range cli.C() {
				store.Append(m)
			}
			// A closed stream with a nil Err is a deliberate shutdown;
			// anything else means the reconnect budget ran out.
			if err := cli.Err(); err != nil && logger != nil {
				logger.Error("upstream feed lost", "addr", *upstream,
					"reconnects", cli.Reconnects(), "err", err)
			}
		}()
		if logger != nil {
			logger.Info("mirroring upstream", "addr", *upstream)
		}
	}

	// Reports stream until interrupted.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	for {
		select {
		case rep, ok := <-d.Reports():
			if !ok {
				return
			}
			t0 := col.Now()
			if *asJSON {
				err = report.WriteJSON(os.Stdout, []*funnel.Report{rep})
			} else {
				err = report.WriteText(os.Stdout, rep, false)
			}
			col.ObserveSince(obs.StageRender, t0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "funnelserve:", err)
			}
			if logger != nil {
				logger.Info("report emitted", "change", rep.Change.ID, "flagged", len(rep.Flagged()))
			}
		case <-sig:
			fmt.Println("funnelserve: shutting down")
			return
		}
	}
}

// splitList parses a comma-separated flag into a clean slice.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runFsck verifies (and with repair, fixes) a persistence directory,
// printing the snapshot's health and each log generation's. Exit codes:
// 0 the directory is clean (or was repaired), 1 damage remains, 2 usage
// error.
func runFsck(dir string, repair bool) int {
	if dir == "" {
		fmt.Fprintln(os.Stderr, "funnelserve: -fsck requires -data")
		return 2
	}
	rep, err := monitor.Fsck(dir, nil, repair)
	if err != nil {
		fmt.Fprintln(os.Stderr, "funnelserve: fsck:", err)
		return 1
	}
	if rep.SnapshotPresent {
		fmt.Printf("snapshot: %d series, %d chunks, %d quarantined\n",
			rep.SnapshotSeries, rep.Chunks, rep.QuarantinedChunks)
	} else {
		fmt.Println("snapshot: none")
	}
	for _, w := range rep.WALs {
		switch {
		case w.ReadError != nil:
			fmt.Printf("%s: UNREADABLE: %v\n", w.Path, w.ReadError)
		case w.TornTail && w.TornAt > 0:
			fmt.Printf("%s: %d records, then a bad record at offset %d: %d bytes left unread\n", w.Path, w.Records, w.TornAt, w.Unread)
		case w.TornTail:
			fmt.Printf("%s: %d records, a shard's cut short at a body that does not decode\n", w.Path, w.Records)
		default:
			fmt.Printf("%s: %d records, clean\n", w.Path, w.Records)
		}
	}
	switch {
	case rep.Repaired:
		fmt.Printf("repaired: %d quarantined chunks dropped as explicit gaps, snapshot rewritten\n", rep.DroppedChunks)
		return 0
	case rep.Healthy():
		fmt.Println("clean")
		return 0
	default:
		fmt.Println("damage found (run with -fsck-repair to consolidate)")
		return 1
	}
}
