// Command ssjoin runs a distributed streaming set-similarity self-join over
// a dataset file (see cmd/datagen for the format) or a generated workload,
// and prints the result pairs or a run summary.
//
//	ssjoin -in data.txt -tau 0.8 -workers 4 -pairs        # emit pairs
//	ssjoin -profile aol -n 20000 -tau 0.8 -dist length    # summary only
//	ssjoin -profile tweet -n 10000 -dist prefix -alg prefix
//
// With -remote, the join runs on external ssjoinworker processes over TCP
// instead of the in-process engine:
//
//	ssjoin -remote 127.0.0.1:7401,127.0.0.1:7402 -profile aol -n 100000
package main

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/record"
	"repro/internal/remote"
	"repro/internal/wal"
	"repro/internal/workload"

	ssjoin "repro"
)

func main() {
	var (
		in      = flag.String("in", "", "input dataset file (token ranks per line); overrides -profile")
		profile = flag.String("profile", "uniform", "generated workload profile: aol, tweet, enron, uniform")
		n       = flag.Int("n", 10000, "records to generate when no -in")
		seed    = flag.Int64("seed", 42, "generator seed")
		tau     = flag.Float64("tau", 0.8, "similarity threshold")
		fn      = flag.String("func", "jaccard", "similarity: jaccard, cosine, dice, overlap")
		alg     = flag.String("alg", "bundle", "local algorithm: bundle, prefix, naive")
		dist    = flag.String("dist", "length", "distribution: length, prefix, broadcast")
		part    = flag.String("part", "load-aware", "length partitioner: load-aware, even-length, even-frequency (not with -resume, whose plan comes from the state directory)")
		workers = flag.Int("workers", 4, "worker parallelism, in-process runs (-remote runs one worker per address)")
		win     = flag.Int64("window", 0, "count window (0 = unbounded)")
		pairs   = flag.Bool("pairs", false, "print result pairs")
		asJSON  = flag.Bool("json", false, "print the in-process run summary as JSON on stdout (not with -remote or -resume)")
		rmt     = flag.String("remote", "", "comma-separated ssjoinworker addresses; replaces the in-process engine")

		coordHTTP = flag.String("http", "", "with -remote: coordinator HTTP address serving /metrics, /debug/events, /debug/pprof, and /healthz for the length of the run")

		retries   = flag.Int("retries", 4, "remote: consecutive failed reconnect attempts before a worker is declared dead and the run fails (0: the first failure fails the run)")
		retryBase = flag.Duration("retry-base", 50*time.Millisecond, "remote: first-retry backoff delay")
		retryCap  = flag.Duration("retry-cap", 2*time.Second, "remote: backoff delay ceiling")
		hbIvl     = flag.Duration("hb-interval", time.Second, "remote: heartbeat ping interval on idle connections")
		hbTimeout = flag.Duration("hb-timeout", 0, "remote: silence span declaring a connection hung (0: 5x interval)")

		stateDir = flag.String("state-dir", "", "durable session state directory (manifest + ingest/results logs) making the run resumable with -resume after a coordinator crash; requires -remote")
		resume   = flag.Bool("resume", false, "relaunch a killed durable run from -state-dir: session configuration, input stream, and completed results all come from the state directory (-in/-profile are ignored)")
		walFsync = flag.String("wal-fsync", "interval", "with -state-dir: fsync policy of the ingest and results logs, bounding what a machine crash can lose of each: always (nothing: every record, result frame and mark is synced as it is appended), interval (at most the last 256 appends), never (what the OS has not flushed); the ingest log is synced once the input is all in it, and both logs when the run ends")
	)
	flag.Parse()

	if *resume && *stateDir == "" {
		fatal(errors.New("-resume requires -state-dir"))
	}
	if *stateDir != "" && *rmt == "" && !*resume {
		fatal(errors.New("-state-dir requires -remote"))
	}
	if *asJSON && (*rmt != "" || *resume) {
		fatal(errors.New("-json applies to in-process runs only, not -remote or -resume"))
	}
	if *rmt != "" || *resume {
		flag.Visit(func(f *flag.Flag) {
			switch {
			case f.Name == "workers":
				fatal(errors.New("-workers applies to in-process runs only, not -remote or -resume"))
			case f.Name == "part" && *resume:
				fatal(errors.New("-part does not apply to -resume: the plan comes from the state directory"))
			}
		})
	}

	var ftCfg *remote.FT // the configuration of every -remote or -resume run
	if *rmt != "" || *resume {
		// A fresh run draws a random non-zero ID, which names it in the
		// workers' journals and in its manifest; -resume replaces it with
		// the manifest's.
		var b [8]byte
		for binary.LittleEndian.Uint64(b[:]) == 0 {
			if _, err := rand.Read(b[:]); err != nil {
				fatal(fmt.Errorf("drawing a session id: %w", err))
			}
		}
		id := binary.LittleEndian.Uint64(b[:])
		ftCfg = &remote.FT{
			Retry:             remote.RetryPolicy{MaxAttempts: *retries, Base: *retryBase, Cap: *retryCap, Seed: id},
			HeartbeatInterval: *hbIvl,
			HeartbeatTimeout:  *hbTimeout,
			SessionID:         id,
		}
	}
	if *resume {
		if err := runResume(*stateDir, *rmt, *pairs, ftCfg, *coordHTTP, *walFsync); err != nil {
			fatal(err)
		}
		return
	}

	cfg, err := joinConfig(*tau, *fn, *alg, *dist, *part, *win)
	if err != nil {
		fatal(err)
	}
	cfg.Workers, cfg.CollectPairs = *workers, *pairs
	recs, err := loadRecords(*in, *profile, *n, *seed)
	if err != nil {
		fatal(err)
	}
	sets := make([][]uint32, len(recs))
	for i, r := range recs {
		sets[i] = r.Tokens
	}

	if *rmt != "" {
		addrs := strings.Split(*rmt, ",")
		cfg.Workers = len(addrs)
		sess, err := cfg.Session(sets)
		if err != nil {
			fatal(err)
		}
		if *stateDir != "" {
			pol, err := wal.ParseSyncPolicy(*walFsync)
			if err != nil {
				fatal(err)
			}
			ftCfg.Durable = &remote.Durable{StateDir: *stateDir, Sync: pol, Workers: addrs}
		}
		if err := execRemote(addrs, sess, recs, *pairs, ftCfg, *coordHTTP); err != nil {
			fatal(err)
		}
		return
	}

	res, err := ssjoin.RunDistributed(sets, cfg)
	if err != nil {
		fatal(err)
	}

	if *pairs && !*asJSON {
		for _, p := range res.Pairs {
			fmt.Printf("%d %d %.4f\n", p.A, p.B, p.Similarity)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := *res
		if !*pairs {
			out.Pairs = nil
		}
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Fprintf(os.Stderr,
		"records=%d results=%d elapsed=%v throughput=%.0f rec/s comm=%d tuples (%d bytes) stored=%d imbalance=%.2f latency(mean/p99)=%dns/%dns\n",
		res.Records, res.Results, res.Elapsed, res.ThroughputPerSec,
		res.CommTuples, res.CommBytes, res.StoredCopies, res.LoadImbalance,
		res.LatencyMeanNs, res.LatencyP99Ns)
}

func loadRecords(path, profile string, n int, seed int64) ([]*record.Record, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.Load(f)
	}
	prof, err := workload.ProfileByName(profile, seed)
	if err != nil {
		return nil, err
	}
	return workload.NewGenerator(prof).Generate(n), nil
}

// joinConfig parses the join flags into the one spec both runtimes run: the
// in-process engine as it is, a fleet through its Session.
func joinConfig(tau float64, fn, alg, dist, part string, win int64) (cfg ssjoin.DistributedConfig, err error) {
	cfg.Threshold, cfg.WindowRecords = tau, win
	if cfg.Function, err = parseEnum("similarity", fn, ssjoin.Jaccard, ssjoin.Cosine, ssjoin.Dice, ssjoin.Overlap); err != nil {
		return cfg, err
	}
	if cfg.Algorithm, err = parseEnum("algorithm", alg, ssjoin.Bundle, ssjoin.Prefix, ssjoin.Naive); err != nil {
		return cfg, err
	}
	if cfg.Distribution, err = parseEnum("distribution", dist, ssjoin.LengthBased, ssjoin.PrefixBased, ssjoin.BroadcastBased); err != nil {
		return cfg, err
	}
	cfg.Partitioner, err = parseEnum("partitioner", part, ssjoin.LoadAware, ssjoin.EvenLength, ssjoin.EvenFrequency)
	return cfg, err
}

// parseEnum returns the value among vals whose String() is s; what names the
// flag's kind in the error.
func parseEnum[T fmt.Stringer](what, s string, vals ...T) (T, error) {
	for _, v := range vals {
		if v.String() == s {
			return v, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q", what, s)
}

// runResume relaunches a durable session purely from its state directory:
// the manifest supplies the configuration, identity, and worker fleet,
// the ingest log supplies the record stream, and the results log seeds
// the coordinator's dedup so completed work is not re-reported. addrList,
// when non-empty, overrides the manifest's worker addresses (a moved
// fleet). The launch's -pairs, which the manifest's Hello keeps as
// CountOnly, decides whether the resumed run collects and prints pairs;
// -pairs on a run launched without it is refused, as its results log
// holds counts.
func runResume(stateDir, addrList string, pairs bool, ftCfg *remote.FT, httpAddr, fsync string) error {
	m, err := checkpoint.LoadManifest(filepath.Join(stateDir, checkpoint.ManifestPath))
	if err != nil {
		return err
	}
	if pairs && m.Hello.CountOnly {
		return errors.New("resume: -pairs, but the run was launched without it: its results log holds counts, not pairs")
	}
	sess, err := remote.SessionFromHello(m.Hello)
	if err != nil {
		return err
	}
	recs, err := remote.ReadIngestLog(stateDir)
	if err != nil {
		return err
	}
	addrs := m.Workers
	if addrList != "" {
		addrs = strings.Split(addrList, ",")
	}
	if len(addrs) == 0 {
		return errors.New("resume: manifest lists no workers; pass -remote")
	}
	pol, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		return err
	}
	ftCfg.SessionID = m.SessionID
	ftCfg.Retry.Seed = m.SessionID
	ftCfg.Durable = &remote.Durable{
		StateDir: stateDir,
		Sync:     pol,
		Resume:   true,
		Workers:  addrs,
	}
	fmt.Fprintf(os.Stderr, "remote: resuming session %016x: %d records in ingest log, %d workers\n",
		m.SessionID, len(recs), len(addrs))
	return execRemote(addrs, sess, recs, !m.Hello.CountOnly, ftCfg, httpAddr)
}

// execRemote is the shared tail of a -remote run and runResume: serve the
// debug surface for the length of the run and coordinate it. Ctrl-C
// cancels the run: dials abort and worker connections close. The
// coordinator dials (and re-dials) each worker on demand.
func execRemote(addrs []string, sess remote.Session, recs []*record.Record, pairs bool, ftCfg *remote.FT, httpAddr string) error {
	dbg, stopDebug := serveDebug(httpAddr)
	defer stopDebug()
	return coordinate(addrs, sess, recs, pairs, ftCfg, dbg)
}

// coordinate runs the session under ftCfg and reports. The run's journal
// events and the coordinator's fault series go to dbg, so /metrics serves
// the coord_* counters.
func coordinate(addrs []string, sess remote.Session, recs []*record.Record, pairs bool, ftCfg *remote.FT, dbg debugSinks) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := remote.Opts{CollectPairs: pairs, Journal: dbg.journal}
	dialer := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addrs[task])
	}
	ft := *ftCfg
	ft.Registry = dbg.reg
	sum, err := remote.RunFT(ctx, dialer, len(addrs), sess, recs, opts, ft)
	if err != nil {
		return err
	}
	if pairs {
		for _, p := range sum.Pairs {
			fmt.Printf("%d %d %.4f\n", p.First, p.Second, p.Sim)
		}
	}
	fmt.Fprintf(os.Stderr,
		"remote: workers=%d records=%d results=%d elapsed=%v throughput=%.0f rec/s sent=%d tuples (%d bytes)\n",
		len(addrs), sum.Records, sum.Results, sum.Elapsed,
		float64(sum.Records)/sum.Elapsed.Seconds(), sum.TuplesSent, sum.BytesSent)
	if sum.Retries > 0 || sum.Reconnects > 0 {
		fmt.Fprintf(os.Stderr, "remote: ft: retries=%d reconnects=%d replayed=%d\n",
			sum.Retries, sum.Reconnects, sum.ReplayedRecords)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, fatalLine(err))
	os.Exit(1)
}

// fatalLine is the line fatal prints: err behind one "ssjoin:", whether or
// not the library already put it there.
func fatalLine(err error) string {
	return "ssjoin: " + strings.TrimPrefix(err.Error(), "ssjoin: ")
}
