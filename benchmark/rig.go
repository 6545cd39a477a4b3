package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/funnel"
	"repro/internal/monitor"
)

// rig is the deployed configuration in one process: a persistent store
// (WAL on), a daemon with streaming assessment and the telemetry HTTP
// surface on, one publisher on the ingest socket and one admin
// connection — the only two clients, both driven by the harness
// goroutine.
type rig struct {
	store   *monitor.Store
	d       *daemon.Daemon
	pub     *monitor.Publisher
	admin   net.Conn
	adminR  *bufio.Reader
	release []func()
}

// startRig opens a persistent store under the run directory with the
// default persistence options and starts the daemon on free loopback
// ports.
func startRig(e *env, pipeline funnel.Config) (*rig, error) {
	dir, err := e.subdir("data-")
	if err != nil {
		return nil, err
	}
	r := &rig{}
	r.release = append(r.release, func() { removeAll(dir) })
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()

	r.store, err = monitor.OpenPersistent(dir, epoch, time.Minute, monitor.PersistOptions{})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	store := r.store
	r.release = append(r.release, registry.push(func() { store.Close() }))

	r.d, err = daemon.Start(daemon.Config{
		Store:      r.store,
		Pipeline:   pipeline,
		IngestAddr: "127.0.0.1:0",
		AdminAddr:  "127.0.0.1:0",
		DebugAddr:  "127.0.0.1:0",
		Stream:     true,
	})
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := r.d
	r.release = append(r.release, registry.push(d.Close))

	r.pub, err = monitor.DialPublisher(r.d.IngestAddr().String())
	if err != nil {
		return nil, fmt.Errorf("dial ingest: %w", err)
	}
	pub := r.pub
	r.release = append(r.release, registry.push(func() { pub.Close() }))

	r.admin, err = net.Dial("tcp", r.d.AdminAddr().String())
	if err != nil {
		return nil, fmt.Errorf("dial admin: %w", err)
	}
	admin := r.admin
	r.release = append(r.release, registry.push(func() { admin.Close() }))
	r.adminR = bufio.NewReader(r.admin)
	ok = true
	return r, nil
}

// close releases the rig in dependency order — clients, daemon, store,
// directory — which is the reverse of how startRig acquired them. The
// ingest server only ends a connection's handler when its peer hangs
// up, so the publisher must go before the daemon.
func (r *rig) close() {
	for i := len(r.release) - 1; i >= 0; i-- {
		r.release[i]()
	}
	r.release = nil
}

// register sends one change registration over the admin connection and
// waits for the daemon's reply line.
func (r *rig) register(req daemon.RegisterRequest) error {
	line, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r.admin.SetDeadline(time.Now().Add(waitTimeout))
	if _, err := r.admin.Write(append(line, '\n')); err != nil {
		return err
	}
	reply, err := r.adminR.ReadString('\n')
	if err != nil {
		return err
	}
	if reply = strings.TrimSpace(reply); reply != "ok" {
		return fmt.Errorf("admin replied %q", reply)
	}
	return nil
}

// publishBin writes one bin as a batch and flushes it to the socket.
func (r *rig) publishBin(batch []monitor.Measurement) error {
	if err := r.pub.PublishBatch(batch); err != nil {
		return err
	}
	return r.pub.Flush()
}

// binVisible reports whether the fleet's sentinel series has reached
// the given bin, i.e. whether every measurement published up to and
// including that bin is readable.
func (r *rig) binVisible(f *fleet, bin int) bool {
	n, ok := r.store.SeriesLen(f.sentinel)
	return ok && n > bin
}
