// Command flserver is the long-running frequency-plan serving daemon: a
// multi-tenant HTTP front end over the guarded scheduler stack. Tenants are
// registered over the API, each with its own guard chain, admission limit
// and bounded queue; SIGTERM triggers a graceful drain (stop accepting,
// finish in-flight, flush audit logs, snapshot the registry crash-safely).
//
// Usage:
//
//	flserver [-addr :8700] [-agent agent.gob] [-snapshot flserver.snap.json]
//	         [-audit-dir audits] [-rate 0] [-burst 32] [-queue-cap 256]
//	         [-request-timeout 1s] [-actor-budget 0] [-drain-timeout 10s]
//	         [-chaos-slow-actor 0] [-tenants tenants.json] [-record-plans]
//	         [-online] [-online-dir ckpts] [-telemetry-interval 0] [-pprof ""]
//
// Every decision is served by the tenant's guard chain (actor → heuristic →
// max-frequency, with circuit breakers); a response's mode names the first
// level of that chain whose breaker is closed ("guarded" for the actor).
//
// -tenants points at a declarative spec file (JSON array of tenant specs)
// loaded on boot; SIGHUP or POST /v1/reload re-reads it atomically,
// rebuilding only changed tenants with zero dropped in-flight requests.
// -online turns on drift-triggered continual learning for DRL tenants:
// guard decisions stream into an online replay loop off the decide path,
// retrains shadow-evaluate against the chaos probe set, and promoted
// candidates are hot-swapped into the serving actor.
//
// -telemetry-interval periodically flushes the live stats document, every
// tenant's audit log and the registry snapshot to the configured paths
// (atomic renames; the drain still performs the final authoritative flush).
// -pprof serves net/http/pprof on its own opt-in listener, e.g.
// -pprof localhost:6060.
//
// Endpoints:
//
//	POST /v1/tenants              register a tenant (server.TenantSpec JSON)
//	GET  /v1/tenants/{name}       one tenant's stats
//	GET  /v1/tenants/{name}/audit export the tenant's audit log (text)
//	POST /v1/decide               one frequency-plan decision (server.DecideRequest)
//	POST /v1/reload               re-read the -tenants file (atomic)
//	GET  /v1/stats                counters, latency quantiles, all tenants
//	GET  /v1/healthz              200 serving / 503 draining
package main

import (
	"context"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on the default mux (served only when -pprof is set)
	"os"
	"os/signal"
	"syscall"
	"time"

	"flag"

	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8700", "listen address")
		agentPath = flag.String("agent", "", "optional trained agent from fltrain (tenants with a matching layout serve it)")
		snapPath  = flag.String("snapshot", "", "registry snapshot path: restored on boot, written atomically on drain")
		auditDir  = flag.String("audit-dir", "", "directory for per-tenant audit logs flushed on drain")

		rate     = flag.Float64("rate", 0, "default per-tenant admission rate, requests/s (0 = unlimited)")
		burst    = flag.Float64("burst", 32, "default admission burst")
		queueCap = flag.Int("queue-cap", 256, "default per-tenant queue bound")
		reqTO    = flag.Duration("request-timeout", time.Second, "default end-to-end request budget")
		actorBud = flag.Duration("actor-budget", 0, "guard per-decision latency watchdog (0 disables)")
		drainTO  = flag.Duration("drain-timeout", 10*time.Second, "graceful drain budget on SIGTERM")

		slowActor = flag.Duration("chaos-slow-actor", 0, "chaos: inject this much latency into every tenant's primary actor")

		tenantsPath = flag.String("tenants", "", "declarative tenant spec file (JSON array of specs), loaded on boot and re-read on SIGHUP / POST /v1/reload")
		recordPlans = flag.Bool("record-plans", false, "record served plans in audit lines (replayable by the online continual-learning loop)")
		onlineFlag  = flag.Bool("online", false, "enable drift-triggered online retraining for DRL tenants (implies -record-plans)")
		onlineDir   = flag.String("online-dir", "", "directory for online retrain candidate checkpoints")

		telemetryIv = flag.Duration("telemetry-interval", 0, "periodic live flush of stats, audits and snapshot (0 disables)")
		pprofAddr   = flag.String("pprof", "", "opt-in net/http/pprof listen address (e.g. localhost:6060); empty disables")
	)
	flag.Parse()

	cfg := server.DefaultServerConfig()
	cfg.Rate = *rate
	cfg.Burst = *burst
	cfg.QueueCap = *queueCap
	cfg.RequestTimeout = *reqTO
	cfg.ActorBudget = *actorBud
	cfg.SlowActor = *slowActor
	cfg.AuditDir = *auditDir
	cfg.SnapshotPath = *snapPath
	cfg.RecordPlans = *recordPlans
	if *onlineFlag {
		cfg.Online = &online.Config{CheckpointDir: *onlineDir}
	}
	if *tenantsPath != "" {
		path := *tenantsPath
		cfg.TenantSource = func() ([]server.TenantSpec, error) {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("flserver: tenants file: %w", err)
			}
			return server.ParseTenantSpecs(data)
		}
	}

	if *agentPath != "" {
		agent, err := core.LoadAgent(*agentPath)
		if err != nil {
			fatal(err)
		}
		cfg.Agent = agent
		fmt.Printf("loaded agent: action dim %d, state dim %d\n",
			agent.Policy.ActionDim(), agent.Policy.StateDim())
	}

	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	if *snapPath != "" {
		fmt.Printf("snapshot: %s\n", *snapPath)
	}

	// Boot-load the declarative tenants, then re-apply the file on every
	// SIGHUP (same code path as POST /v1/reload).
	if cfg.TenantSource != nil {
		rep, err := srv.ReloadFromSource()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("tenants from %s: %d added, %d rebuilt, %d unchanged\n",
			*tenantsPath, rep.Added, rep.Rebuilt, rep.Unchanged)
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				rep, err := srv.ReloadFromSource()
				if err != nil {
					fmt.Fprintf(os.Stderr, "flserver: reload: %v\n", err)
					continue
				}
				fmt.Printf("reloaded %s: %d added, %d rebuilt, %d unchanged, %d dropped\n",
					*tenantsPath, rep.Added, rep.Rebuilt, rep.Unchanged, rep.Dropped)
			}
		}()
	}

	// The profiler gets its own listener so production traffic and the
	// default mux never mix; the import above registered the handlers.
	if *pprofAddr != "" {
		go func() {
			fmt.Printf("pprof listening on %s\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "flserver: pprof: %v\n", err)
			}
		}()
	}

	if *telemetryIv > 0 {
		fmt.Printf("telemetry: flushing every %v\n", *telemetryIv)
		stopTelemetry := srv.StartTelemetry(*telemetryIv, func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "flserver: "+format+"\n", args...)
		})
		defer stopTelemetry()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Graceful drain on the first SIGINT/SIGTERM: stop accepting, let
	// in-flight requests finish, flush audits, snapshot the registry. A
	// second signal force-exits (the OnSignal contract).
	drained := make(chan struct{})
	stop := server.OnSignal(func(sig os.Signal) {
		fmt.Printf("\n%v: draining (budget %v)...\n", sig, *drainTO)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		srv.BeginDrain()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "flserver: shutdown: %v\n", err)
		}
		rep, err := srv.FinishDrain(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flserver: drain: %v\n", err)
		}
		if rep != nil {
			fmt.Printf("drained: %d tenants, accepted %d, responded %d, dropped %d\n",
				rep.Tenants, rep.Accepted, rep.Responded, rep.Dropped)
			for _, f := range rep.AuditFiles {
				fmt.Printf("audit: %s\n", f)
			}
			if rep.Snapshot != "" {
				fmt.Printf("snapshot written: %s\n", rep.Snapshot)
			}
		}
		close(drained)
	})
	defer stop()

	fmt.Printf("flserver listening on %s\n", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	<-drained
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flserver:", err)
	os.Exit(1)
}
