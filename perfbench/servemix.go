package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/serve"
	"smallbandwidth/internal/store"
)

// request is one served request as the client saw it.
type request struct {
	Line  string  `json:"line"`
	Ms    float64 `json:"ms"`
	Reply string  `json:"reply"`
}

// serveGraphs builds the serve-mix resident graphs from the seed, keyed
// by the names the request lines use.
func serveGraphs(sz sizes, seed uint64) (map[string]*graph.Graph, error) {
	k := 0
	next := func() uint64 { k++; return subSeed(seed, k) }
	big, err := regular(sz.BigN, 8, next())
	if err != nil {
		return nil, err
	}
	gs := map[string]*graph.Graph{"big": big}
	for _, m := range deckMix {
		for i := 0; m.prefix != "" && i < m.count; i++ {
			var g *graph.Graph
			switch m.prefix {
			case "reg":
				g, err = regular(sz.CongestN, 8, next())
			case "grid":
				g, err = relabeledGrid(sz.DecompS, next())
			case "clq":
				g, err = regular(sz.CliqueN, sz.CliqueD, next())
			case "mpc":
				g, err = regular(sz.MPCN, 8, next())
			}
			if err != nil {
				return nil, err
			}
			gs[requestGraph(m.prefix, i)] = g
		}
	}
	return gs, nil
}

// probeGraphs are the serve probe's resident graphs for a workload that
// does not serve requests: its own graph for stats and greedy, and BFS
// samples of it, sized like the serve-mix graphs, for the first graph
// of each other class.
func probeGraphs(sz sizes, g *graph.Graph) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"big":   g,
		"reg0":  bfsSample(g, sz.SampleCongest),
		"grid0": bfsSample(g, sz.SampleDecomp),
		"clq0":  bfsSample(g, sz.SampleClique),
		"mpc0":  bfsSample(g, sz.SampleMPC),
	}
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// daemon is an in-process colorserve: a serve.Server on a loopback TCP
// listener with two closed-loop client connections.
type daemon struct {
	srv     *serve.Server
	cancel  context.CancelFunc
	served  chan error
	clients []*client
}

type client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// nClients is the number of closed-loop client connections, fixed (not
// taken from the host) at the reference host's CPU count, so that two
// requests compete for two CPUs and results compare across hosts only
// through the num_cpu record.
const nClients = 2

// writeStores writes every graph to dir in the store format and returns
// the paths by name, plus the total bytes written.
func writeStores(dir string, gs map[string]*graph.Graph, tr *tracer, parent int) (map[string]string, int, error) {
	paths := map[string]string{}
	total := 0
	for _, name := range sortedKeys(gs) {
		path := filepath.Join(dir, name+".sbwg")
		var err error
		trDo(tr, "store.write", parent, 0, func() { err = store.Write(path, gs[name]) })
		if err != nil {
			return nil, 0, err
		}
		info, err := store.ReadInfo(path)
		if err != nil {
			return nil, 0, err
		}
		paths[name] = path
		total += info.Bytes
	}
	return paths, total, nil
}

// startDaemon loads the stores into a server, serves it on a loopback
// listener and connects the clients. With a tracer, loading is split
// into its two public steps (store.Load, then Server.AddGraph, which
// builds the resident instance); without one it is Server.LoadStore,
// as colorserve runs it.
func startDaemon(paths map[string]string, tr *tracer, parent int) (*daemon, error) {
	srv := serve.New(serve.Options{})
	for _, name := range sortedKeys(paths) {
		if tr == nil {
			if _, err := srv.LoadStore(name, paths[name]); err != nil {
				return nil, err
			}
			continue
		}
		var (
			g   *graph.Graph
			err error
		)
		tr.do("store.load", parent, 0, func() { g, _, err = store.Load(paths[name]) })
		if err != nil {
			return nil, err
		}
		tr.do("graph.instance", parent, 0, func() { err = srv.AddGraph(name, g) })
		if err != nil {
			return nil, err
		}
	}
	d := &daemon{srv: srv, served: make(chan error, 1)}
	var startErr error
	trDo(tr, "serve.start", parent, 0, func() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			startErr = err
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		d.cancel = cancel
		go func() { d.served <- srv.Serve(ctx, ln) }()
		for i := 0; i < nClients; i++ {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				startErr = err
				return
			}
			d.clients = append(d.clients, &client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)})
		}
	})
	if startErr != nil {
		d.stop()
		return nil, startErr
	}
	return d, nil
}

// stop closes the clients, stops the server and waits until it has
// returned.
func (d *daemon) stop() {
	for _, c := range d.clients {
		c.conn.Close()
	}
	if d.cancel != nil {
		d.cancel()
		<-d.served
	}
}

// roundTrip sends one request line and reads its reply line.
func (c *client) roundTrip(line string) (string, error) {
	if _, err := c.w.WriteString(line + "\n"); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	reply, err := c.r.ReadString('\n')
	return strings.TrimSpace(reply), err
}

// runDeck sends the deck through the clients in a closed loop: each
// client takes the next unsent line as soon as its previous reply has
// arrived. Latency is timed per request from the write to the reply.
// It returns the requests in deck order and the wall time of the deck.
func (d *daemon) runDeck(lines []string, tr *tracer, parent int) ([]request, time.Duration) {
	reqs := make([]request, len(lines))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range d.clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(lines) {
					return
				}
				id := 0
				if tr != nil {
					id = tr.begin("serve.request", parent, i+1)
				}
				t := time.Now()
				reply, err := c.roundTrip(lines[i])
				ms := float64(time.Since(t)) / float64(time.Millisecond)
				if tr != nil {
					tr.end(id)
				}
				if err != nil {
					reply = fmt.Sprintf("err client: %v", err)
				}
				reqs[i] = request{Line: lines[i], Ms: ms, Reply: reply}
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := range reqs {
		if reqs[i].Line == "" {
			reqs[i] = request{Line: lines[i], Reply: "err client: not sent"}
		}
	}
	return reqs, elapsed
}

// trDo runs fn inside a span when tr is non-nil, and plainly otherwise.
func trDo(tr *tracer, name string, parent, run int, fn func()) {
	if tr == nil {
		fn()
		return
	}
	tr.do(name, parent, run, fn)
}
