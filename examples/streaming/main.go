// Streaming: the online deployment shape of §2.2 and §5. Per-server
// agents push 1-minute KPI measurements into the central store; the
// store's TCP subscription server forwards them to a FUNNEL consumer
// process over the wire protocol; when the change log records a
// software change, the consumer assesses it from the data it has
// received. Everything runs in one process here, but the two halves
// talk only through the TCP socket — split them across machines and
// nothing changes.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	funnel "repro"
)

const (
	service   = "cache.kv"
	nServers  = 4
	historyD  = 7
	totalMins = (historyD + 1) * 1440
	changeMin = historyD*1440 + 420
)

func main() {
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)

	// ---- producer side: agents + store + TCP push server ----
	producerStore := funnel.NewStore(start, time.Minute)
	agent := funnel.NewAgent(producerStore)
	tp := funnel.NewTopology()
	rng := rand.New(rand.NewSource(3))
	var servers []string
	for i := 0; i < nServers; i++ {
		srv := fmt.Sprintf("kv-%02d", i)
		servers = append(servers, srv)
		tp.Deploy(service, srv)
		treated := i == 0 // the change will go to kv-00 only
		seed := rng.Int63()
		agent.Track(funnel.KPIKey{Scope: funnel.ScopeServer, Entity: srv, Metric: "mem.util"},
			memUtil(seed, treated))
	}
	server := funnel.NewMonitorServer(producerStore)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()

	// ---- consumer side: subscribe over TCP into a second store ----
	client, err := funnel.DialMonitor(addr.String(), "server/")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	// The consumer is the deployed FUNNEL (§5): a Streamer on the
	// consumer store. The loop below only appends what the TCP stream
	// delivers; the store's bin feed advances the change's scores as
	// each bin lands.
	consumerStore := funnel.NewStore(start, time.Minute)
	sr, err := funnel.NewStreamer(consumerStore, tp, funnel.Config{
		ServerMetrics: []string{"mem.util"},
		HistoryDays:   historyD,
	}, funnel.StreamConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer sr.Close()
	done := make(chan struct{})
	received := 0
	go func() {
		defer close(done)
		for m := range client.C() {
			consumerStore.Append(m)
			received++
		}
	}()

	// The operations team registers the change as it deploys (§2.1's
	// change logs feed FUNNEL directly).
	change := funnel.Change{
		ID: "kv-tuning", Type: funnel.ConfigChange, Service: service,
		Servers: servers[:1], At: start.Add(changeMin * time.Minute),
	}
	if err := sr.RegisterChange(change); err != nil {
		log.Fatal(err)
	}

	// The subscribe frame races the first measurements: hold the
	// producer until the server has registered the subscription.
	for producerStore.Subscribers() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Run the simulated week. The agent's virtual clock emits all bins
	// as fast as the wire moves them.
	fmt.Printf("streaming %d minutes × %d servers over %s ...\n", totalMins, nServers, addr)
	agent.Run(totalMins)

	// Wait until the consumer has caught up, then drop the link.
	waitCaughtUp(consumerStore, servers[0], totalMins)
	client.Close()
	<-done
	fmt.Printf("consumer received %d measurements over TCP\n", received)

	// ---- the full assessment arrives from the Streamer ----
	select {
	case report := <-sr.Reports():
		fmt.Printf("report for %s:\n", report.Change.ID)
		for _, a := range report.Assessments {
			fmt.Printf("  %-28s %-20s α=%+6.2f\n", a.Key, a.Verdict, a.Alpha)
		}
	case <-time.After(30 * time.Second):
		log.Fatal("no report from the streamer")
	}
}

// memUtil builds a stationary memory-utilization generator; treated
// servers leak memory from changeMin onward.
func memUtil(seed int64, treated bool) func(int) float64 {
	rng := rand.New(rand.NewSource(seed))
	var cache []float64
	return func(bin int) float64 {
		for len(cache) <= bin {
			cache = append(cache, rng.NormFloat64())
		}
		v := 58 + 0.6*cache[bin]
		if treated && bin >= changeMin {
			v += 9
		}
		return v
	}
}

// waitCaughtUp blocks until the consumer store has the full series for
// a reference server (drop-oldest delivery means the tail arrives last).
func waitCaughtUp(store *funnel.Store, server string, want int) {
	key := funnel.KPIKey{Scope: funnel.ScopeServer, Entity: server, Metric: "mem.util"}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s, ok := store.Series(key); ok && s.Len() >= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}
