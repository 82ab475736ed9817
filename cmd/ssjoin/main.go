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
	"runtime"
	"strings"
	"time"

	"repro/internal/bundle"
	"repro/internal/checkpoint"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/remote"
	"repro/internal/similarity"
	"repro/internal/wal"
	"repro/internal/window"
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
		part    = flag.String("part", "load-aware", "length partitioner, in-process runs: load-aware, even-length, even-frequency (-remote plans load-aware)")
		workers = flag.Int("workers", 4, "worker parallelism, in-process runs (-remote runs one worker per address)")
		par     = flag.Int("parallel", runtime.GOMAXPROCS(0), "verifier goroutines per worker (bundle algorithm, in-process runs): candidate verification fans out across cores with deterministic output; 1 disables, 0 or less means the default")
		win     = flag.Int64("window", 0, "count window (0 = unbounded)")
		pairs   = flag.Bool("pairs", false, "print result pairs")
		asJSON  = flag.Bool("json", false, "print the in-process run summary as JSON on stdout (not with -remote or -resume)")
		rmt     = flag.String("remote", "", "comma-separated ssjoinworker addresses; replaces the in-process engine")

		coordHTTP = flag.String("http", "", "with -remote: coordinator HTTP address serving /metrics, /debug/events, /debug/pprof, and /healthz for the length of the run")

		ft        = flag.Bool("ft", false, "fault-tolerant remote run: heartbeats, retry with backoff, checkpointed resume (requires -remote)")
		retries   = flag.Int("retries", 4, "FT: consecutive failed reconnect attempts before a worker is declared dead and the run fails")
		retryBase = flag.Duration("retry-base", 50*time.Millisecond, "FT: first-retry backoff delay")
		retryCap  = flag.Duration("retry-cap", 2*time.Second, "FT: backoff delay ceiling")
		hbIvl     = flag.Duration("hb-interval", time.Second, "FT: heartbeat ping interval on idle connections")
		hbTimeout = flag.Duration("hb-timeout", 0, "FT: silence span declaring a connection hung (0: 5x interval)")

		stateDir = flag.String("state-dir", "", "durable session state directory (manifest + ingest/results logs) making the run resumable with -resume after a coordinator crash; implies -ft, requires -remote")
		resume   = flag.Bool("resume", false, "relaunch a killed durable run from -state-dir: session configuration, input stream, and completed results all come from the state directory (-in/-profile are ignored)")
		walFsync = flag.String("wal-fsync", "interval", "with -state-dir: WAL fsync policy: always, interval, never (acknowledged results are synced before each ack regardless)")
	)
	flag.Parse()

	if *par <= 0 {
		*par = runtime.GOMAXPROCS(0)
	}

	if *resume && *stateDir == "" {
		fatal(errors.New("-resume requires -state-dir"))
	}
	if *stateDir != "" && *rmt == "" && !*resume {
		fatal(errors.New("-state-dir requires -remote"))
	}
	if *ft && *rmt == "" && !*resume {
		fatal(errors.New("-ft requires -remote"))
	}
	if *asJSON && (*rmt != "" || *resume) {
		fatal(errors.New("-json applies to in-process runs only, not -remote or -resume"))
	}
	if *rmt != "" || *resume {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "part", "workers", "parallel":
				fatal(fmt.Errorf("-%s applies to in-process runs only, not -remote or -resume", f.Name))
			}
		})
	}

	if *rmt != "" || *resume {
		var ftCfg *remote.FT
		if *ft || *stateDir != "" {
			// A fresh run draws a random non-zero ID, which keys worker
			// checkpoints no earlier run wrote; -resume replaces it with the
			// manifest's.
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
		recs, err := loadRecords(*in, *profile, *n, *seed)
		if err != nil {
			fatal(err)
		}
		if *stateDir != "" {
			pol, err := wal.ParseSyncPolicy(*walFsync)
			if err != nil {
				fatal(err)
			}
			ftCfg.Durable = &remote.Durable{
				StateDir: *stateDir,
				Sync:     pol,
				Workers:  strings.Split(*rmt, ","),
			}
		}
		if err := runRemote(*rmt, recs, *tau, *fn, *alg, *dist, *win, *pairs, ftCfg, *coordHTTP); err != nil {
			fatal(err)
		}
		return
	}

	recs, err := loadRecords(*in, *profile, *n, *seed)
	if err != nil {
		fatal(err)
	}
	sets := make([][]uint32, len(recs))
	for i, r := range recs {
		sets[i] = r.Tokens
	}

	cfg := ssjoin.DistributedConfig{
		Workers:      *workers,
		CollectPairs: *pairs,
		Parallelism:  *par,
	}
	cfg.Threshold = *tau
	cfg.WindowRecords = *win
	if cfg.Function, err = parseFunc(*fn); err != nil {
		fatal(err)
	}
	if cfg.Algorithm, err = parseAlg(*alg); err != nil {
		fatal(err)
	}
	if cfg.Distribution, err = parseDist(*dist); err != nil {
		fatal(err)
	}
	if cfg.Partitioner, err = parsePart(*part); err != nil {
		fatal(err)
	}

	res, err := ssjoin.RunDistributed(sets, cfg)
	if err != nil {
		fatal(err)
	}

	if *pairs {
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

func parseFunc(s string) (ssjoin.Similarity, error) {
	switch s {
	case "jaccard":
		return ssjoin.Jaccard, nil
	case "cosine":
		return ssjoin.Cosine, nil
	case "dice":
		return ssjoin.Dice, nil
	case "overlap":
		return ssjoin.Overlap, nil
	}
	return 0, fmt.Errorf("unknown similarity %q", s)
}

func parseAlg(s string) (ssjoin.Algorithm, error) {
	switch s {
	case "bundle":
		return ssjoin.Bundle, nil
	case "prefix":
		return ssjoin.Prefix, nil
	case "naive":
		return ssjoin.Naive, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

func parseDist(s string) (ssjoin.Distribution, error) {
	switch s {
	case "length":
		return ssjoin.LengthBased, nil
	case "prefix":
		return ssjoin.PrefixBased, nil
	case "broadcast":
		return ssjoin.BroadcastBased, nil
	}
	return 0, fmt.Errorf("unknown distribution %q", s)
}

func parsePart(s string) (ssjoin.Partitioner, error) {
	switch s {
	case "load-aware":
		return ssjoin.LoadAware, nil
	case "even-length":
		return ssjoin.EvenLength, nil
	case "even-frequency":
		return ssjoin.EvenFrequency, nil
	}
	return 0, fmt.Errorf("unknown partitioner %q", s)
}

// planSample is how many leading records the length plan of a remote run is
// fitted to: DistributedConfig.SampleSize's default, so the in-process and
// the remote runtime plan one input alike.
const planSample = 10000

// runRemote executes the join on external workers over TCP. Ctrl-C cancels
// the run: dials abort and worker connections close. With ftCfg set the
// run goes through the fault-tolerant coordinator: each worker is dialed
// (and re-dialed) on demand instead of up front. A non-empty httpAddr
// serves the coordinator's debug endpoints during the run.
func runRemote(addrList string, recs []*record.Record, tau float64, fn, alg, dist string, win int64, pairs bool, ftCfg *remote.FT, httpAddr string) error {
	addrs := strings.Split(addrList, ",")

	f, err := similarity.ParseFunc(fn)
	if err != nil {
		return err
	}
	a, err := local.ParseAlgorithm(alg)
	if err != nil {
		return err
	}
	params := filter.Params{Func: f, Threshold: tau}
	sess := remote.Session{
		Params:    params,
		Algorithm: a,
		Strategy:  dist,
		Bundle:    bundle.Config{},
	}
	if win > 0 {
		sess.Window = window.Count{N: win}
	}
	if dist == "length" {
		var h partition.Histogram
		for _, r := range recs[:min(len(recs), planSample)] {
			h.Add(r.Len())
		}
		w := partition.CostModel{Params: params}.Weights(&h)
		sess.Bounds = partition.LoadAware(w, len(addrs)).Bounds
	}
	return execRemote(addrs, sess, recs, pairs, ftCfg, httpAddr)
}

// runResume relaunches a durable session purely from its state directory:
// the manifest supplies the configuration, identity, and worker fleet,
// the ingest log supplies the record stream, and the results log seeds
// the coordinator's dedup so completed work is not re-reported. addrList,
// when non-empty, overrides the manifest's worker addresses (a moved
// fleet).
func runResume(stateDir, addrList string, pairs bool, ftCfg *remote.FT, httpAddr, fsync string) error {
	m, err := checkpoint.LoadManifest(filepath.Join(stateDir, checkpoint.ManifestPath))
	if err != nil {
		return err
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
	return execRemote(addrs, sess, recs, pairs, ftCfg, httpAddr)
}

// execRemote is the shared tail of runRemote and runResume: dial, run,
// report.
func execRemote(addrs []string, sess remote.Session, recs []*record.Record, pairs bool, ftCfg *remote.FT, httpAddr string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	journal, stopDebug := serveDebug(httpAddr)
	defer stopDebug()

	opts := remote.Opts{CollectPairs: pairs, Journal: journal}
	var err error
	var sum *remote.RunSummary
	if ftCfg != nil {
		dialer := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addrs[task])
		}
		sum, err = remote.RunFT(ctx, dialer, len(addrs), sess, recs, opts, *ftCfg)
	} else {
		var conns []net.Conn
		conns, err = remote.Dial(ctx, addrs, 5*time.Second)
		if err != nil {
			return err
		}
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		rws := make([]io.ReadWriter, len(conns))
		for i, c := range conns {
			rws[i] = c
		}
		sum, err = remote.RunWithOpts(ctx, rws, sess, recs, opts)
	}
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
	if ftCfg != nil && (sum.Retries > 0 || sum.Reconnects > 0) {
		fmt.Fprintf(os.Stderr, "remote: ft: retries=%d reconnects=%d replayed=%d\n",
			sum.Retries, sum.Reconnects, sum.ReplayedRecords)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssjoin:", err)
	os.Exit(1)
}
