package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"raftpaxos"
	"raftpaxos/internal/workload"
)

// spec is one benchmark workload: the cluster it builds and the open-loop
// load it drives against it.
type spec struct {
	name string

	// Cluster shape.
	proto     raftpaxos.Proto
	tick      time.Duration
	election  time.Duration
	heartbeat time.Duration
	// tcp selects three cluster.Hosts over a loopback transport.NewTCPGroups
	// mesh; false builds the in-process channel cluster raftpaxos.NewCluster
	// assembles (volatile, no storage).
	tcp bool
	// wanDelay is the one-way delay the FIFO link wrapper adds to every
	// replica-to-replica message (0 = plain loopback).
	wanDelay time.Duration
	// snapEvery is the applied-entry snapshot interval of the File WAL.
	snapEvery int

	// Load.
	rate    float64 // arrivals per second (Poisson)
	readPct int     // share of gets, percent
	keys    int     // uniform key space (ycsb == false)
	// ycsb draws keys and the read/write mix from internal/workload (the
	// paper's generator: records plus one hot, conflicting record).
	ycsb        bool
	conflictPct int
	// roundRobin spreads requests over all replicas; otherwise every
	// request goes to the current leader.
	roundRobin bool

	// Fault schedule (leader-failover): the current leader is crash-stopped
	// firstCrash into the measured window, then every crashEvery, and
	// restarted after downFor.
	firstCrash time.Duration
	crashEvery time.Duration
	downFor    time.Duration
}

// Per-request limits shared by every workload. warmup is load run at the
// workload's rate before the measured window: the first seconds of a fresh
// cluster (heap growth, GC pacing, first WAL segments) run several times
// slower and would otherwise decide the tail. A refused request is resent
// after retryFirst, doubling up to retryMax: a failover can leave
// thousands of requests waiting for an election, and a fixed short backoff
// would have them all polling at once.
const (
	warmup     = 3 * time.Second
	deadline   = 2 * time.Second
	retryFirst = 5 * time.Millisecond
	retryMax   = 80 * time.Millisecond
	valueSize  = 16
)

// inflightCap bounds requests in flight. A request lives at most its
// deadline, so at 1.25× rate×deadline the cap refuses only when far more
// arrive than the rate says, never merely because an outage outlasted a
// smaller cap.
func (s spec) inflightCap() int64 {
	return int64(1.25 * s.rate * deadline.Seconds())
}

// specs are the benchmark's workloads; README.md gives why each was
// chosen and how its rate sits against the knee measured for it.
var specs = []spec{
	{
		name:  "write-wal-tcp",
		proto: raftpaxos.ProtoRaftStar, tick: time.Millisecond,
		election: 50 * time.Millisecond, heartbeat: 10 * time.Millisecond,
		tcp: true, snapEvery: 1000,
		rate: 10000, readPct: 5, keys: 512,
	},
	{
		name:  "read-lease-wan",
		proto: raftpaxos.ProtoRaftStarPQL, tick: 10 * time.Millisecond,
		election: 300 * time.Millisecond, heartbeat: 50 * time.Millisecond,
		tcp: true, wanDelay: 10 * time.Millisecond, snapEvery: 1000,
		rate: 5000, readPct: 90, ycsb: true, keys: 10000, conflictPct: 5, roundRobin: true,
	},
	{
		name:  "write-inproc-raft",
		proto: raftpaxos.ProtoRaft, tick: 10 * time.Millisecond,
		election: 300 * time.Millisecond, heartbeat: 50 * time.Millisecond,
		rate: 5000, readPct: 5, keys: 512,
	},
	{
		name:  "leader-failover",
		proto: raftpaxos.ProtoRaftStar, tick: time.Millisecond,
		election: 50 * time.Millisecond, heartbeat: 10 * time.Millisecond,
		tcp: true, snapEvery: 1000,
		rate: 5000, readPct: 5, keys: 512,
		firstCrash: 2 * time.Second, crashEvery: 10 * time.Second, downFor: 400 * time.Millisecond,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// clusterConfig is the engine configuration every replica of the workload
// is built from.
func (s spec) clusterConfig() raftpaxos.ClusterConfig {
	return raftpaxos.ClusterConfig{
		Protocol:          s.proto,
		Nodes:             replicas,
		TickInterval:      s.tick,
		ElectionTimeout:   s.election,
		HeartbeatInterval: s.heartbeat,
		LeaseDuration:     2 * time.Second,
		LeaseRenew:        500 * time.Millisecond,
		Seed:              7,
	}
}

// op is one generated request. Its op number is its index in the stream;
// a write's value carries that number so every replica event, read result
// and final state links back to the request that caused it.
type op struct {
	due    time.Duration // offset from the start of the load (warm-up first)
	read   bool
	key    string
	target int // replica for round-robin workloads, -1 = current leader
}

// stream is a workload's whole generated input: the preload that set-up
// writes (op numbers 0..len(preload)-1) and the open-loop requests, which
// follow: warm-up first, then the measured window.
type stream struct {
	seed    int64
	preload []op
	window  []op
	keys    []string
}

// genStream draws the workload's inputs from seed alone.
func genStream(s spec, seed int64, seconds float64) *stream {
	st := &stream{seed: seed}
	arrivals := rand.New(rand.NewSource(seed))
	n := int(s.rate * (warmup.Seconds() + seconds))
	var next func() (bool, string)
	if s.ycsb {
		g := workload.NewGenerator(workload.Config{
			ReadPercent: s.readPct, ConflictPercent: s.conflictPct,
			Records: s.keys, ValueSize: valueSize, Regions: 1,
		}, 0, seed)
		for k := 0; k < s.keys; k++ {
			st.keys = append(st.keys, fmt.Sprintf("r0-%d", k))
		}
		st.keys = append(st.keys, workload.HotKey)
		next = func() (bool, string) {
			r := g.Next()
			return r.Read, r.Key
		}
	} else {
		for k := 0; k < s.keys; k++ {
			st.keys = append(st.keys, fmt.Sprintf("k%04d", k))
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		next = func() (bool, string) {
			return rng.Intn(100) < s.readPct, st.keys[rng.Intn(len(st.keys))]
		}
	}
	for _, k := range st.keys {
		st.preload = append(st.preload, op{key: k, target: -1})
	}
	var at float64
	for i := 0; i < n; i++ {
		at += arrivals.ExpFloat64() / s.rate
		read, key := next()
		o := op{due: time.Duration(at * float64(time.Second)), read: read, key: key, target: -1}
		if s.roundRobin {
			o.target = i % replicas
		}
		st.window = append(st.window, o)
	}
	return st
}

// total is the number of op numbers the stream uses.
func (st *stream) total() int { return len(st.preload) + len(st.window) }

// value is the 16-byte payload of write opNum: the op number, then a
// seed-dependent tag.
func (st *stream) value(opNum int) []byte {
	v := make([]byte, valueSize)
	binary.BigEndian.PutUint64(v[:8], uint64(opNum))
	binary.BigEndian.PutUint64(v[8:], uint64(st.seed)*0x9e3779b97f4a7c15^uint64(opNum))
	return v
}

// opOf recovers the op number a stored value carries (-1 for no value).
func opOf(v []byte) int64 {
	if len(v) < 8 {
		return -1
	}
	return int64(binary.BigEndian.Uint64(v[:8]))
}

// hash fingerprints the whole op stream: same seed, same hash.
func (st *stream) hash() string {
	h := fnv.New64a()
	var b [8]byte
	put := func(o op, num int) {
		binary.BigEndian.PutUint64(b[:], uint64(o.due))
		h.Write(b[:])
		if o.read {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
			h.Write(st.value(num))
		}
		h.Write([]byte(o.key))
		binary.BigEndian.PutUint64(b[:], uint64(int64(o.target)))
		h.Write(b[:])
	}
	for i, o := range st.preload {
		put(o, i)
	}
	for i, o := range st.window {
		put(o, len(st.preload)+i)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
