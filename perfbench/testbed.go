package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raftpaxos"
	"raftpaxos/internal/cluster"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/transport"
)

const replicas = 3

// replica is one member of the benchmark cluster. A TCP replica keeps its
// transport for the whole run; a crash replaces its Host with a fresh one
// opened from the same data directory.
type replica struct {
	id   protocol.NodeID
	dir  string
	up   atomic.Bool
	host atomic.Pointer[cluster.Host]
	node atomic.Pointer[cluster.Node] // the group-0 runtime clients call
	tcp  *transport.TCP
	// store is the open File the current Host was given; the Host does
	// not close injected stores, so the benchmark does.
	store *storage.File
	// incarnations holds every runtime this replica ran, for post-run
	// counters.
	incarnations []*cluster.Node
}

// testbed is one live 3-replica cluster built only through public
// constructors.
type testbed struct {
	s     spec
	tr    *tracer // nil in untraced runs
	reps  []*replica
	peers []protocol.NodeID
	lines map[[2]protocol.NodeID]*delayLine // WAN workload: one per directed link

	// In-process workloads: raftpaxos.NewCluster untraced, or the same
	// assembly with traced seams.
	nc    *raftpaxos.Cluster
	chnet *transport.ChanNetwork

	stopOnce sync.Once
}

func newTestbed(s spec, dir string, tr *tracer) (*testbed, error) {
	b := &testbed{s: s, tr: tr}
	for i := 0; i < replicas; i++ {
		b.peers = append(b.peers, protocol.NodeID(i))
		b.reps = append(b.reps, &replica{
			id: protocol.NodeID(i), dir: filepath.Join(dir, fmt.Sprintf("node-%d", i)),
		})
	}
	var err error
	if s.tcp {
		err = b.startTCP()
	} else {
		b.startInProc()
	}
	if err != nil {
		b.stop()
		return nil, err
	}
	return b, nil
}

// startInProc builds the channel-transport cluster. Untraced it is
// raftpaxos.NewCluster itself; traced it is the same assembly (cluster.New
// over raftpaxos.NewEngine and one ChanNetwork), which NewCluster offers
// no seam to wrap.
func (b *testbed) startInProc() {
	cfg := b.s.clusterConfig()
	if b.tr == nil {
		b.nc, _ = raftpaxos.NewCluster(cfg) // never fails
		for i, r := range b.reps {
			n := b.nc.Node(i)
			r.node.Store(n)
			r.incarnations = append(r.incarnations, n)
			r.up.Store(true)
		}
		return
	}
	b.chnet = transport.NewChanNetwork()
	for _, r := range b.reps {
		n := cluster.New(cluster.Config{
			Engine:       b.tr.wrapEngine(raftpaxos.NewEngine(cfg, r.id, b.peers)),
			Transport:    tracedSend{t: b.tr, next: b.chnet},
			TickInterval: cfg.TickInterval,
		})
		deliver := b.tr.wrapDeliver(func(_ uint64, from protocol.NodeID, msg protocol.Message) {
			n.HandleMessage(from, msg)
		})
		b.chnet.Listen(r.id, func(from protocol.NodeID, msg protocol.Message) { deliver(0, from, msg) })
		r.node.Store(n)
		r.incarnations = append(r.incarnations, n)
		r.up.Store(true)
	}
	for _, r := range b.reps {
		r.node.Load().Start()
	}
}

// startTCP listens every replica on a loopback port, publishes the
// address map, then starts the hosts.
func (b *testbed) startTCP() error {
	cluster.RegisterMessages()
	addrs := map[protocol.NodeID]string{}
	for _, id := range b.peers {
		addrs[id] = "127.0.0.1:0"
	}
	for _, r := range b.reps {
		r := r
		var h transport.GroupHandler = func(group uint64, from protocol.NodeID, msg protocol.Message) {
			if host := r.host.Load(); host != nil && r.up.Load() {
				host.HandleMessage(group, from, msg)
			}
		}
		if b.tr != nil {
			h = b.tr.wrapDeliver(h)
		}
		tcp, err := transport.NewTCPGroups(r.id, addrs, h, transport.TCPOptions{})
		if err != nil {
			return err
		}
		r.tcp = tcp
	}
	// Writers read the map only after the first send, which follows Start.
	for _, r := range b.reps {
		addrs[r.id] = r.tcp.Addr()
	}
	if b.s.wanDelay > 0 {
		b.lines = map[[2]protocol.NodeID]*delayLine{}
		for _, from := range b.reps {
			for _, to := range b.reps {
				if from != to {
					b.lines[[2]protocol.NodeID{from.id, to.id}] = newDelayLine(from.tcp, b.s.wanDelay)
				}
			}
		}
	}
	for i := range b.reps {
		if err := b.startHost(i); err != nil {
			return err
		}
	}
	return nil
}

// startHost opens replica i's store and starts a Host on it.
func (b *testbed) startHost(i int) error {
	r := b.reps[i]
	cfg := b.s.clusterConfig()
	var send transport.GroupTransport = linkSender{b: b, from: r.id}
	if b.tr != nil {
		send = tracedSend{t: b.tr, next: send}
	}
	h, err := cluster.NewHost(cluster.HostConfig{
		Transport: send,
		OpenStore: func(int) (storage.Store, error) {
			start := time.Now()
			f, err := storage.OpenFileWith(r.dir, storage.Options{})
			if err != nil {
				return nil, err
			}
			r.store = f
			if b.tr == nil {
				return f, nil
			}
			b.tr.openHist.record(int64(time.Since(start)))
			return b.tr.wrapStore(i, f), nil
		},
		NewEngine: func(int) protocol.Engine {
			e := raftpaxos.NewEngine(cfg, r.id, b.peers)
			if b.tr != nil {
				e = b.tr.wrapEngine(e)
			}
			return e
		},
		TickInterval:     cfg.TickInterval,
		SnapshotInterval: b.s.snapEvery,
	})
	if err != nil {
		return err
	}
	r.host.Store(h)
	r.node.Store(h.Group(0))
	r.incarnations = append(r.incarnations, h.Group(0))
	r.up.Store(true)
	h.Start()
	return nil
}

// crash crash-stops replica i: its traffic is dropped at the link wrapper
// from this instant, then its Host stops and its store closes.
func (b *testbed) crash(i int) {
	r := b.reps[i]
	r.up.Store(false)
	r.host.Load().Stop()
	r.store.Close()
}

// linkSender is a Host's outbound transport: it drops traffic from or to
// a crashed replica and, for the WAN workload, hands the message to the
// link's FIFO delay line instead of the TCP transport.
type linkSender struct {
	b    *testbed
	from protocol.NodeID
}

func (l linkSender) SendGroup(group uint64, from, to protocol.NodeID, msg protocol.Message) {
	if int(to) >= replicas || !l.b.reps[l.from].up.Load() || !l.b.reps[to].up.Load() {
		return
	}
	if d := l.b.lines[[2]protocol.NodeID{l.from, to}]; d != nil {
		d.push(group, from, to, msg)
		return
	}
	l.b.reps[l.from].tcp.SendGroup(group, from, to, msg)
}

func (l linkSender) Send(from, to protocol.NodeID, msg protocol.Message) {
	l.SendGroup(0, from, to, msg)
}

func (l linkSender) Close() error { return nil }

// delayLine delays every message on one directed link by a fixed amount
// and forwards in arrival order, so per-pair FIFO holds as on a real link.
type delayLine struct {
	delay time.Duration
	next  transport.GroupTransport
	ch    chan delayed
	stopc chan struct{}
	done  chan struct{}
}

type delayed struct {
	at       time.Time
	group    uint64
	from, to protocol.NodeID
	msg      protocol.Message
}

// delayQueue bounds one link's in-flight messages: 10 ms of the busiest
// workload's traffic is a few hundred messages, so overflow means the
// forwarder is stuck, and the message is dropped as a lossy link would.
const delayQueue = 1 << 14

func newDelayLine(next transport.GroupTransport, delay time.Duration) *delayLine {
	d := &delayLine{
		delay: delay, next: next,
		ch:    make(chan delayed, delayQueue),
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	go d.run()
	return d
}

func (d *delayLine) push(group uint64, from, to protocol.NodeID, msg protocol.Message) {
	select {
	case d.ch <- delayed{at: time.Now().Add(d.delay), group: group, from: from, to: to, msg: msg}:
	default:
	}
}

func (d *delayLine) run() {
	defer close(d.done)
	for {
		select {
		case m := <-d.ch:
			sleepUntil(m.at)
			d.next.SendGroup(m.group, m.from, m.to, m.msg)
		case <-d.stopc:
			return
		}
	}
}

func (d *delayLine) stop() {
	close(d.stopc)
	<-d.done
}

// stop tears the cluster down and closes every store the benchmark
// opened. Idempotent.
func (b *testbed) stop() { b.stopOnce.Do(b.teardown) }

func (b *testbed) teardown() {
	if b.nc != nil {
		b.nc.Stop()
	}
	var wg sync.WaitGroup
	for _, r := range b.reps {
		if !r.up.Load() {
			continue
		}
		r.up.Store(false)
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			if h := r.host.Load(); h != nil {
				h.Stop()
				r.store.Close()
			} else if b.nc == nil {
				r.node.Load().Stop()
			}
		}(r)
	}
	wg.Wait()
	for _, d := range b.lines {
		d.stop()
	}
	for _, r := range b.reps {
		if r.tcp != nil {
			r.tcp.Close()
		}
	}
	if b.chnet != nil {
		b.chnet.Close()
	}
}

// leader returns the live replica that believes it leads, or -1.
func (b *testbed) leader() int {
	for i, r := range b.reps {
		if r.up.Load() && r.node.Load().IsLeader() {
			return i
		}
	}
	return -1
}

func (b *testbed) waitLeader(timeout time.Duration) (int, error) {
	end := time.Now().Add(timeout)
	for time.Now().Before(end) {
		if l := b.leader(); l >= 0 {
			return l, nil
		}
		time.Sleep(time.Millisecond)
	}
	return -1, errors.New("no leader elected")
}

// retryable reports a refusal: the replica did not take the request
// (not the leader, stopped, or shed), so the client may resend it.
func retryable(err error) bool {
	if errors.Is(err, cluster.ErrStopped) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, protocol.ErrNotLeader.Error()) ||
		strings.Contains(msg, protocol.ErrDropped.Error()) ||
		strings.Contains(msg, cluster.ErrStopped.Error())
}

// preload writes every key once through the leader, as set-up.
func (b *testbed) preload(st *stream) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sem := make(chan struct{}, 256)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for i, o := range st.preload {
		sem <- struct{}{}
		wg.Add(1)
		go func(num int, key string) {
			defer func() { <-sem; wg.Done() }()
			for {
				l := b.leader()
				if l < 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				err := b.reps[l].node.Load().Put(ctx, key, st.value(num))
				if err == nil {
					return
				}
				if !retryable(err) || ctx.Err() != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("preload %s: %w", key, err)
					}
					mu.Unlock()
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(i, o.key)
	}
	wg.Wait()
	return first
}

// quiesce waits until every live replica has applied the same index and
// held it, i.e. replication has drained.
func (b *testbed) quiesce(timeout time.Duration) error {
	end := time.Now().Add(timeout)
	var last int64 = -1
	stable := 0
	for time.Now().Before(end) {
		idx, same := int64(-1), true
		for _, r := range b.reps {
			if !r.up.Load() {
				continue
			}
			a := r.node.Load().Store().AppliedIndex()
			if idx >= 0 && a != idx {
				same = false
			}
			idx = a
		}
		if same && idx == last {
			if stable++; stable >= 5 {
				return nil
			}
		} else {
			stable = 0
		}
		last = idx
		time.Sleep(20 * time.Millisecond)
	}
	return errors.New("replicas did not converge")
}
