// Command stellaris-obsd is the fleet telemetry collector (DESIGN.md
// §12): it discovers running stellaris processes, scrapes their
// /metrics.json endpoints into a windowed time-series store, derives
// fleet-level signals (staleness-budget burn, per-shard failover and
// fencing rates, checkpoint cadence), evaluates alert rules with
// for-duration hysteresis, captures pprof snapshots from offending
// instances when a rule fires, and serves a self-contained HTML
// dashboard.
//
// Discovery is either dynamic — processes started with -obs-id
// self-register into the cache tier under sys/obs/instances/ and obsd
// follows the registrations (and the sys/topology document, so the
// dashboard tracks failovers) — or static:
//
//	stellaris-obsd -cache 127.0.0.1:6380                    # dynamic
//	stellaris-obsd -targets 127.0.0.1:9090,127.0.0.1:9091   # static
//
// Both can be combined. The dashboard lives at http://<listen>/dash,
// the machine-readable fleet state at /fleet.json, and obsd's own
// metrics (it watches itself) under /metrics and /metrics.json.
//
// Alert rules default to a built-in set (instance down, shard
// unserved); -rules replaces them with a JSON
// array of fleet.Rule documents. With -profile-dir set, rules marked
// "profile": true capture a heap + CPU profile from the offending
// instance the moment they fire, keeping the newest -profile-keep
// captures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/cache/cluster"
	"stellaris/internal/obs"
	"stellaris/internal/obs/fleet"
	"stellaris/internal/obs/lineage"
)

type config struct {
	listen         string
	cacheAddr      string
	targets        string
	scrapeEvery    time.Duration
	ttl            time.Duration
	retention      time.Duration
	rateWindow     time.Duration
	rulesPath      string
	noDefaultRules bool
	profileDir     string
	profileSecs    int
	profileKeep    int
	obsID          string
	heartbeatEvery time.Duration
	logLevel       string
}

func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("stellaris-obsd", flag.ContinueOnError)
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:9700", "dashboard/API listen address")
	fs.StringVar(&cfg.cacheAddr, "cache", "", "cache address for dynamic discovery via sys/obs/instances/ (empty = static targets only)")
	fs.StringVar(&cfg.targets, "targets", "", "comma-separated static scrape addresses (host:port of obs endpoints)")
	fs.DurationVar(&cfg.scrapeEvery, "scrape-every", time.Second, "collection interval")
	fs.DurationVar(&cfg.ttl, "ttl", 0, "liveness TTL override for registrations that advertise none (0 = collector default)")
	fs.DurationVar(&cfg.retention, "retention", 10*time.Minute, "drop series silent this long")
	fs.DurationVar(&cfg.rateWindow, "rate-window", 10*time.Second, "window for derived per-second rates")
	fs.StringVar(&cfg.rulesPath, "rules", "", "JSON file with an array of alert rules (replaces built-in defaults)")
	fs.BoolVar(&cfg.noDefaultRules, "no-default-rules", false, "start with no alert rules unless -rules is given")
	fs.StringVar(&cfg.profileDir, "profile-dir", "", "capture pprof snapshots here when profiling rules fire (empty disables)")
	fs.IntVar(&cfg.profileSecs, "profile-seconds", fleet.DefaultProfileSeconds, "CPU profile duration per capture")
	fs.IntVar(&cfg.profileKeep, "profile-keep", fleet.DefaultProfileKeep, "newest captures kept on disk")
	fs.StringVar(&cfg.obsID, "obs-id", "obsd", "self-registration instance ID (requires -cache; empty disables)")
	fs.DurationVar(&cfg.heartbeatEvery, "heartbeat-every", time.Second, "self-registration heartbeat interval")
	fs.StringVar(&cfg.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.cacheAddr == "" && cfg.targets == "" {
		return cfg, fmt.Errorf("nothing to watch: set -cache and/or -targets")
	}
	return cfg, nil
}

// defaultRules is the built-in SLO set over the collector's derived
// fleet signals. Thresholds assume the default 10s rate window and a
// ~1s scrape cadence.
func defaultRules() []fleet.Rule {
	return []fleet.Rule{
		{
			Name: "instance-down", Metric: "fleet_instance_up",
			Instance: fleet.FleetInstance, Below: true, Threshold: 0.5,
			ForSec: 5, Severity: "page",
		},
		{
			// A shard whose current topology leader stops answering ops:
			// the signal collapses on partition and recovers after the
			// client tier promotes the follower. Worth a profile — the
			// victim may be wedged rather than dead.
			Name: "shard-unserved", Metric: "fleet_shard_serving",
			Instance: fleet.FleetInstance, Kind: fleet.KindValue,
			Below: true, Threshold: 0.05, ForSec: 8, Severity: "page",
			Profile: true,
		},
	}
}

func loadRules(cfg config) ([]fleet.Rule, error) {
	var rules []fleet.Rule
	if !cfg.noDefaultRules {
		rules = defaultRules()
	}
	if cfg.rulesPath != "" {
		b, err := os.ReadFile(cfg.rulesPath)
		if err != nil {
			return nil, err
		}
		var loaded []fleet.Rule
		if err := json.Unmarshal(b, &loaded); err != nil {
			return nil, fmt.Errorf("rules %s: %w", cfg.rulesPath, err)
		}
		rules = loaded
	}
	return rules, nil
}

// daemon is the running collector: connection(s) to the cache tier, the
// fleet collector plus its tick loop, the HTTP surface, and obsd's own
// self-registration heartbeat.
type daemon struct {
	reg     *obs.Registry
	col     *fleet.Collector
	disc    cache.Conn
	hb      *cache.Heartbeat
	hbConn  cache.Conn
	ln      net.Listener
	srv     *http.Server
	stop    chan struct{}
	done    chan struct{}
	running bool
}

// dialDiscovery connects to the cache tier for discovery. If a
// topology document is already published the plain connection is
// upgraded to a sharded client that follows failovers; otherwise the
// single-server connection is kept (the heartbeat protocol and
// topology reads work on either).
func dialDiscovery(addr string, lg *slog.Logger) (cache.Conn, error) {
	cli, err := cache.Dial(addr)
	if err != nil {
		return nil, err
	}
	b, err := cli.Get(cluster.TopologyKey)
	if err != nil {
		return cli, nil
	}
	topo, err := cluster.Decode(b)
	if err != nil {
		lg.Warn("undecodable topology document, staying unsharded", "err", err.Error())
		return cli, nil
	}
	sc, err := cache.DialSharded(topo, cache.DialOptions{})
	if err != nil {
		lg.Warn("sharded dial failed, staying unsharded", "err", err.Error())
		return cli, nil
	}
	_ = cli.Close()
	sc.StartTopologyWatch(time.Second)
	lg.Info("following sharded topology", "shards", len(topo.Shards), "version", topo.Version)
	return sc, nil
}

func newDaemon(cfg config, lg *slog.Logger) (*daemon, error) {
	rules, err := loadRules(cfg)
	if err != nil {
		return nil, err
	}

	d := &daemon{
		reg:  obs.NewRegistry(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	d.reg.SetInfo("mode", "obsd")
	lin := lineage.New(d.reg.Now, lineage.Options{})
	d.reg.SetTraceSource(lin)

	var discover cache.Cache
	if cfg.cacheAddr != "" {
		conn, err := dialDiscovery(cfg.cacheAddr, lg)
		if err != nil {
			return nil, fmt.Errorf("discovery dial %s: %w", cfg.cacheAddr, err)
		}
		d.disc = conn
		discover = conn
	}

	var targets []string
	if cfg.targets != "" {
		for _, t := range strings.Split(cfg.targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, t)
			}
		}
	}

	col, err := fleet.New(fleet.Config{
		Clock:          d.reg.Now,
		Targets:        targets,
		Discover:       discover,
		FetchTimeout:   cfg.scrapeEvery,
		RetentionSec:   cfg.retention.Seconds(),
		RateWindowSec:  cfg.rateWindow.Seconds(),
		TTLSec:         cfg.ttl.Seconds(),
		Rules:          rules,
		ProfileDir:     cfg.profileDir,
		ProfileSeconds: cfg.profileSecs,
		ProfileKeep:    cfg.profileKeep,
		Lineage:        lin,
		Log:            lg,
		Obs:            d.reg,
	})
	if err != nil {
		d.close()
		return nil, err
	}
	d.col = col

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		d.close()
		return nil, err
	}
	d.ln = ln

	// One mux: the fleet surface at the root, obsd's own registry
	// (metrics + pprof, so obsd can be profiled like anything else)
	// alongside it.
	mux := http.NewServeMux()
	fleetH := col.Handler()
	mux.Handle("/dash", fleetH)
	mux.Handle("/fleet.json", fleetH)
	mux.Handle("/", fleetH)
	own := obs.Handler(d.reg)
	for _, p := range []string{
		"/metrics", "/metrics.json", "/metrics.csv", "/trace.chrome.json",
		"/healthz", "/buildinfo", "/debug/pprof/",
	} {
		mux.Handle(p, own)
	}
	d.srv = &http.Server{Handler: mux}
	go func() { _ = d.srv.Serve(ln) }()

	// Self-registration: obsd is a fleet member too, on a dedicated
	// connection so heartbeat writes never contend with discovery scans.
	if discover != nil && cfg.obsID != "" {
		hbConn, err := cache.Dial(cfg.cacheAddr)
		if err != nil {
			lg.Warn("self-registration dial failed", "err", err.Error())
		} else {
			d.hbConn = hbConn
			d.hb = cache.StartHeartbeat(hbConn, cache.Instance{
				ID: cfg.obsID, Role: "obsd", Addr: ln.Addr().String(),
				Shard: -1, PID: os.Getpid(),
			}, cfg.heartbeatEvery)
		}
	}

	d.running = true
	go d.run(cfg.scrapeEvery)
	return d, nil
}

func (d *daemon) run(every time.Duration) {
	defer close(d.done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	d.col.Tick()
	for {
		select {
		case <-tick.C:
			d.col.Tick()
		case <-d.stop:
			return
		}
	}
}

func (d *daemon) close() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	if d.running {
		<-d.done
	}
	if d.hb != nil {
		d.hb.Stop()
		_ = d.hbConn.Close()
	}
	if d.col != nil {
		d.col.Close()
	}
	if d.srv != nil {
		_ = d.srv.Close()
	}
	if d.disc != nil {
		_ = d.disc.Close()
	}
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "stellaris-obsd:", err)
		os.Exit(2)
	}
	lg := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: obs.ParseLogLevel(cfg.logLevel)}))
	d, err := newDaemon(cfg, lg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stellaris-obsd:", err)
		os.Exit(1)
	}
	fmt.Printf("stellaris-obsd dashboard on http://%s/dash (fleet state at /fleet.json)\n", d.ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	view := d.col.View()
	fmt.Printf("stellaris-obsd: %d ticks, %d instances, %d series, %d alert transitions\n",
		view.Ticks, len(view.Instances), view.Series, len(view.Events))
	d.close()
}
