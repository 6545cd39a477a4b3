// Daemonized: the full service deployment in one process — the shape
// `cmd/funnelserve` runs in production. Agents publish measurements
// over the TCP ingest port, the operations team registers the change
// over the admin port exactly as a deployment script would (one JSON
// line), and the daemon, assessing on ingest, prints the assessment when
// the observation window completes. Afterwards the telemetry surface is read back over
// HTTP: /metrics shows the pipeline stage counters and
// /traces/<change-id> the per-KPI assessment trace.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	funnel "repro"
	"repro/internal/daemon"
	"repro/internal/monitor"
	"repro/internal/report"
)

const (
	service   = "search.frontend"
	nServers  = 4
	historyD  = 3
	changeMin = historyD*1440 + 300
	totalMins = changeMin + 200
)

func main() {
	start := time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC)
	store := funnel.NewStore(start, time.Minute)

	d, err := daemon.Start(daemon.Config{
		Store: store,
		Pipeline: funnel.Config{
			ServerMetrics: []string{"rt.delay"},
			HistoryDays:   historyD,
		},
		IngestAddr:    "127.0.0.1:0",
		SubscribeAddr: "127.0.0.1:0",
		AdminAddr:     "127.0.0.1:0",
		DebugAddr:     "127.0.0.1:0",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	fmt.Printf("daemon up: ingest=%v admin=%v subscribe=%v debug=%v\n",
		d.IngestAddr(), d.AdminAddr(), d.SubscribeAddr(), d.DebugAddr())

	// Control-group placement comes from deployment data.
	servers := make([]string, nServers)
	for i := range servers {
		servers[i] = fmt.Sprintf("fe-%02d", i)
	}
	if err := d.DeployService(service, servers...); err != nil {
		log.Fatal(err)
	}

	// The deployment script registers the change over the admin port.
	admin, err := net.Dial("tcp", d.AdminAddr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	fmt.Fprintf(admin, `{"id":"fe-rollout-7","type":"upgrade","service":%q,"servers":["fe-00"],"at":%q}`+"\n",
		service, start.Add(changeMin*time.Minute).Format(time.RFC3339))
	if resp, err := bufio.NewReader(admin).ReadString('\n'); err != nil || strings.TrimSpace(resp) != "ok" {
		log.Fatalf("admin registration: %q %v", resp, err)
	}
	fmt.Println("change fe-rollout-7 registered (dark launch on fe-00)")

	// Each server's agent publishes its KPI stream; the upgrade
	// regresses response delay on the treated server only.
	pub, err := monitor.DialPublisher(d.IngestAddr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer pub.Close()
	rng := rand.New(rand.NewSource(2015))
	for bin := 0; bin < totalMins; bin++ {
		ts := start.Add(time.Duration(bin) * time.Minute)
		for i, srv := range servers {
			v := 95 + 4*rng.NormFloat64()
			if i == 0 && bin >= changeMin {
				v += 60
			}
			if err := pub.Publish(monitor.Measurement{
				Key: funnel.KPIKey{Scope: funnel.ScopeServer, Entity: srv, Metric: "rt.delay"},
				T:   ts, V: v,
			}); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := pub.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %d minutes × %d servers\n", totalMins, nServers)

	select {
	case rep := <-d.Reports():
		for _, a := range rep.Flagged() {
			delay := a.Detection.AvailableAt - rep.ChangeBin
			fmt.Printf("ASSESSED %s: %v %s α=%+.1f (similarity %.2f), detection available %d min after rollout\n",
				rep.Change.ID, a.Key, a.Detection.Kind, a.Alpha, a.ControlSimilarity, delay)
		}
	case <-time.After(60 * time.Second):
		log.Fatal("no report from the daemon")
	}

	// What an operator would curl after the rollout: the aggregate
	// pipeline metrics, then this change's assessment trace.
	base := "http://" + d.DebugAddr().String()
	var metrics map[string]json.RawMessage
	if err := getJSON(base+"/metrics", &metrics); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("/metrics: %s measurements ingested, %s changes assessed, sst windows scored: ",
		metrics["monitor.ingested"], metrics["assess.changes"])
	var sstWindow struct {
		Count int64 `json:"count"`
		AvgUs int64 `json:"avg_us"`
	}
	if err := json.Unmarshal(metrics["stage.sst_window"], &sstWindow); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d (mean %d µs each; %s answered by a bound, %s eigen-solved)\n",
		sstWindow.Count, sstWindow.AvgUs, metrics["sst.windows_bounded"], metrics["sst.windows_solved"])
	fmt.Printf("/metrics: %s streaming advances read only their new bins, %s re-read the whole window\n",
		metrics["stream.tail_reads"], metrics["stream.full_reads"])

	var trace funnel.PipelineTrace
	if err := getJSON(base+"/traces/fe-rollout-7", &trace); err != nil {
		log.Fatal(err)
	}
	if err := report.WriteTraceText(os.Stdout, &trace); err != nil {
		log.Fatal(err)
	}
}

// getJSON fetches one telemetry endpoint.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s (%s)", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
