// Multi-process cube-and-conquer: a coordinator (Serve) listens on
// localhost, compiles the sketch once, and hands out cubes over a
// newline-delimited JSON protocol; joiner processes (Join) dial in,
// recompile the sketch locally from the shipped source (the encoding
// is deterministic, cross-checked via the setup-prefix guard), run one
// cube engine at a time, and ship the outcome back. The coordinator
// may run local workers too, so local goroutines and remote processes
// steal from the same queue.
//
// What crosses the wire, and why it stays sound:
//
//   - Projected counterexamples travel as semantic []project.Entry
//     batches, never CNF: each side re-encodes them through its own
//     projection cache, because Tseitin numbering above the shared
//     setup prefix diverges per cube. Origins are preserved end to
//     end, so a relay never echoes a batch back to its producer.
//   - Learnt clauses (DIMACS over the shared prefix) are relayed only
//     when proof logging is OFF. The in-process bus is proof-sound
//     because producers stamp a lemma into the ONE merged recorder
//     before publishing; a remote importer logs into its own recorder,
//     where the imported clause would have no prior derivation and the
//     merged replay would fail. Traces stay shareable under proof
//     because their encodings enter each log as premises, and
//     drat.Certificate loads all premises before any lemma.
//   - A remote cube that exhausts ships its recorder's Export() —
//     premises then lemmas — and the coordinator replants both through
//     a drat.Namespace of the master recorder before appending the
//     cube's refutation clause, exactly like an in-process cube.
//
// Failure handling is deliberately simple: a connection that dies
// mid-cube aborts the whole run with an error (no re-queue), matching
// the trust model of a localhost experiment harness rather than a
// fault-tolerant cluster.
package cube

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"psketch/internal/core"
	"psketch/internal/desugar"
	"psketch/internal/drat"
	"psketch/internal/obs"
	"psketch/internal/parser"
	"psketch/internal/project"
	"psketch/internal/sat"
)

// RemoteOptions describe the problem a coordinator serves: joiners
// receive the sketch SOURCE and desugar options and compile locally,
// so both sides derive the identical deterministic encoding instead of
// shipping CNF.
type RemoteOptions struct {
	Src     string
	Target  string
	Desugar desugar.Options
}

// wireCore is the plain-data subset of core.Options a job carries
// (function pointers, buses and tokens are per-process and never
// marshal).
type wireCore struct {
	MaxIterations      int  `json:"max_iterations,omitempty"`
	MCMaxStates        int  `json:"mc_max_states,omitempty"`
	TracesPerIteration int  `json:"traces_per_iteration,omitempty"`
	Parallelism        int  `json:"parallelism,omitempty"`
	NoPOR              bool `json:"no_por,omitempty"`
	NoShareClauses     bool `json:"no_share_clauses,omitempty"`
	HeapSampleEvery    int  `json:"heap_sample_every,omitempty"`
}

// wireClause is one relayed learnt clause in DIMACS literals, tagged
// with its origin cube.
type wireClause struct {
	Origin int   `json:"origin"`
	Lits   []int `json:"lits"`
}

// wireMsg is one line of the protocol. Type selects which fields are
// meaningful:
//
//	hello    joiner → coordinator  (Workers)
//	job      coordinator → joiner  (ID, Src, Target, Desugar, Core,
//	                                Cube, NCommon, Proof)
//	entries  both directions       (Batches)
//	clauses  both directions       (Shared; proof off only)
//	proof    joiner → coordinator  (Kind "p"|"l", Clauses; chunked,
//	                                sent before an exhausted result)
//	result   joiner → coordinator  (ID, Resolved/Exhausted/Canceled,
//	                                Candidate, Stats, RemoteTraces)
//	cancel   coordinator → joiner  (race decided; abort current cube)
//	bye      coordinator → joiner  (no more work)
//	err      joiner → coordinator  (Error)
type wireMsg struct {
	Type    string `json:"type"`
	Workers int    `json:"workers,omitempty"`

	ID      int              `json:"id"` // cube id; no omitempty — cube 0 is real
	Src     string           `json:"src,omitempty"`
	Target  string           `json:"target,omitempty"`
	Desugar *desugar.Options `json:"desugar,omitempty"`
	Core    *wireCore        `json:"core,omitempty"`
	Cube    []core.CubeLit   `json:"cube,omitempty"`
	NCommon int              `json:"ncommon,omitempty"`
	Proof   bool             `json:"proof,omitempty"`

	Batches []project.Batch `json:"batches,omitempty"`
	Shared  []wireClause    `json:"shared,omitempty"`

	Kind    string  `json:"kind,omitempty"`
	Clauses [][]int `json:"clauses,omitempty"`

	Resolved     bool              `json:"resolved,omitempty"`
	Exhausted    bool              `json:"exhausted,omitempty"`
	Canceled     bool              `json:"canceled,omitempty"`
	Candidate    desugar.Candidate `json:"candidate,omitempty"`
	Stats        *core.Stats       `json:"stats,omitempty"`
	RemoteTraces int64             `json:"remote_traces,omitempty"`

	Error string `json:"error,omitempty"`
}

// proofChunk bounds clauses per proof message so a half-million-premise
// certificate streams as many lines instead of one enormous one.
const proofChunk = 8192

func dimacsOf(lits []sat.Lit) []int {
	out := make([]int, len(lits))
	for i, l := range lits {
		out[i] = sat.Dimacs(l)
	}
	return out
}

func litsOf(dimacs []int) []sat.Lit {
	out := make([]sat.Lit, len(dimacs))
	for i, d := range dimacs {
		if d > 0 {
			out[i] = sat.MkLit(d-1, false)
		} else {
			out[i] = sat.MkLit(-d-1, true)
		}
	}
	return out
}

// Serve runs the coordinator side of a distributed cube-and-conquer
// synthesis on addr. opts.Workers is the number of LOCAL cube engines
// (0 = pure coordinator, every cube runs on joiners); opts.Cubes must
// request a real split. Serve returns when the merged verdict is
// known, joiners still connected get a bye/cancel and are released.
func Serve(addr string, ropts RemoteOptions, opts Options, verbose func(string, ...any)) (*Result, error) {
	if verbose == nil {
		verbose = func(string, ...any) {}
	}
	if opts.Cubes < 2 {
		return nil, errors.New("cube: serving requires -cubes >= 2")
	}
	prog, err := parser.Parse(ropts.Src)
	if err != nil {
		return nil, err
	}
	sk, err := desugar.Desugar(prog, ropts.Target, ropts.Desugar)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	r, err := newRun(sk, opts)
	if err != nil {
		return nil, err
	}
	if len(r.bits) == 0 {
		return nil, errors.New("cube: sketch has too few hole bits to split; run without -serve-cubes")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	verbose("cube: serving %d cubes on %s (%d local workers)", r.n, ln.Addr(), opts.Workers)
	stop := r.watchCancel()
	defer stop()

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.localWorker()
		}()
	}
	go func() {
		idx := 0
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			idx++
			verbose("cube: joiner %d connected from %s", idx, conn.RemoteAddr())
			c := &remoteConn{r: r, ropts: &ropts, conn: conn,
				enc: json.NewEncoder(conn), dec: json.NewDecoder(conn),
				ran: make(map[int]bool), verbose: verbose}
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.handle()
			}()
		}
	}()

	// The race ends when every cube has an outcome, or early when a
	// verdict/error/cancel closes doneCh (cubes never claimed then have
	// no outcome to wait for).
	got := 0
	for got < r.n {
		select {
		case <-r.outcomes:
			got++
		case <-r.doneCh:
			got = r.n
		}
	}
	r.cancelAll()
	ln.Close()
	// Handlers finish their in-flight job (canceled joiners still send a
	// result), local workers drain via failed claims; everything records
	// its outcome before returning, so merge sees the final state.
	wg.Wait()
	return r.merge(start)
}

// remoteConn is the coordinator-side handler of one joiner.
type remoteConn struct {
	r     *run
	ropts *RemoteOptions
	conn  net.Conn
	enc   *json.Encoder
	dec   *json.Decoder
	wmu   sync.Mutex // serializes enc between job loop and relay pump

	ranMu sync.Mutex
	ran   map[int]bool // cubes this conn ran: never relay their output back

	verbose func(string, ...any)
}

func (c *remoteConn) send(m *wireMsg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.Encode(m)
}

func (c *remoteConn) didRun(origin int) bool {
	c.ranMu.Lock()
	defer c.ranMu.Unlock()
	return c.ran[origin]
}

func (c *remoteConn) setRan(id int) (stolen bool) {
	c.ranMu.Lock()
	defer c.ranMu.Unlock()
	stolen = len(c.ran) > 0
	c.ran[id] = true
	return stolen
}

// relay pushes trace batches (and, proof off, bus clauses) produced by
// everyone except this conn's own cubes.
func (c *remoteConn) relay(tcur *int, ccur *uint64) {
	batches, tnext := c.r.tbus.Fetch(*tcur, -1)
	*tcur = tnext
	var out []project.Batch
	for _, b := range batches {
		if !c.didRun(b.Origin) {
			out = append(out, b)
		}
	}
	if len(out) > 0 {
		c.send(&wireMsg{Type: "entries", Batches: out})
	}
	if c.r.bus != nil && !c.r.opts.Proof {
		tagged, cnext := c.r.bus.FetchTagged(*ccur)
		*ccur = cnext
		var sh []wireClause
		for _, tc := range tagged {
			if !c.didRun(tc.Origin) {
				sh = append(sh, wireClause{Origin: tc.Origin, Lits: dimacsOf(tc.Lits)})
			}
		}
		if len(sh) > 0 {
			c.send(&wireMsg{Type: "clauses", Shared: sh})
		}
	}
}

func (c *remoteConn) handle() {
	defer c.conn.Close()
	var hello wireMsg
	if err := c.dec.Decode(&hello); err != nil || hello.Type != "hello" {
		return
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() { // relay pump
		var tcur int
		var ccur uint64
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.relay(&tcur, &ccur)
			}
		}
	}()
	go func() { // cancel push: fires as soon as the race is decided
		select {
		case <-c.r.doneCh:
			c.send(&wireMsg{Type: "cancel"})
		case <-stop:
		}
	}()
	wcore := wireCore{
		MaxIterations:      c.r.opts.Core.MaxIterations,
		MCMaxStates:        c.r.opts.Core.MCMaxStates,
		TracesPerIteration: c.r.opts.Core.TracesPerIteration,
		Parallelism:        c.r.opts.Core.Parallelism,
		NoPOR:              c.r.opts.Core.NoPOR,
		NoShareClauses:     c.r.opts.Core.NoShareClauses,
		HeapSampleEvery:    c.r.opts.Core.HeapSampleEvery,
	}
	for {
		id, ok := <-c.r.queue
		if !ok {
			c.send(&wireMsg{Type: "bye"})
			return
		}
		if _, ok := c.r.claim(id); !ok {
			c.send(&wireMsg{Type: "bye"})
			return
		}
		stolen := c.setRan(id)
		job := wireMsg{Type: "job", ID: id,
			Src: c.ropts.Src, Target: c.ropts.Target, Desugar: &c.ropts.Desugar,
			Core: &wcore, Cube: Assign(c.r.bits, id), NCommon: c.r.nCommon,
			Proof: c.r.opts.Proof}
		c.verbose("cube: dispatching cube %d to %s", id, c.conn.RemoteAddr())
		if err := c.send(&job); err != nil {
			c.r.fail(id, err)
			return
		}
		if err := c.runJob(id, stolen); err != nil {
			c.r.fail(id, err)
			return
		}
		if c.r.decided() {
			c.send(&wireMsg{Type: "bye"})
			return
		}
	}
}

// runJob reads the joiner's stream for one cube until its result.
func (c *remoteConn) runJob(id int, stolen bool) error {
	var premises, lemmas [][]int
	for {
		var m wireMsg
		if err := c.dec.Decode(&m); err != nil {
			return fmt.Errorf("joiner lost mid-cube: %w", err)
		}
		switch m.Type {
		case "entries":
			for _, b := range m.Batches {
				c.r.tbus.Publish(b.Origin, b.Entries)
			}
		case "clauses":
			if c.r.bus != nil && !c.r.opts.Proof {
				for _, sc := range m.Shared {
					c.r.bus.Publish(sc.Origin, litsOf(sc.Lits))
				}
			}
		case "proof":
			if m.Kind == "p" {
				premises = append(premises, m.Clauses...)
			} else {
				lemmas = append(lemmas, m.Clauses...)
			}
		case "err":
			return errors.New(m.Error)
		case "result":
			var st core.Stats
			if m.Stats != nil {
				st = *m.Stats
			}
			switch {
			case m.Resolved:
				c.verbose("cube: cube %d resolved remotely", id)
				c.r.finishResolved(id, m.Candidate, st, stolen, true)
			case m.Exhausted:
				// Replant the shipped log into the merged certificate:
				// premises and lemmas pass through this cube's namespace
				// (vars above the shared prefix get fresh global names),
				// then finishExhausted appends the refutation clause
				// ¬cube_id after the lemmas that justify it.
				if c.r.rec != nil {
					ns := c.r.rec.Namespace(c.r.nCommon)
					for _, p := range premises {
						ns.AddPremise(p)
					}
					for _, l := range lemmas {
						ns.AddLemma(l)
					}
				}
				c.verbose("cube: cube %d exhausted remotely (%d premises, %d lemmas shipped)",
					id, len(premises), len(lemmas))
				c.r.finishExhausted(id, st, nil, stolen, true, m.RemoteTraces)
			default:
				c.r.finishCanceled(id, stolen, true)
			}
			return nil
		}
	}
}

// Join connects to a coordinator at addr and runs cubes until released
// with a bye. The joiner compiles the shipped sketch source locally,
// checks its setup prefix against the coordinator's, and runs one cube
// engine at a time with a local trace bus (relayed), a local clause
// bus (proof off only) and, under proof, a local DRAT recorder whose
// log ships back with the result.
func Join(addr string, verbose func(string, ...any)) error {
	if verbose == nil {
		verbose = func(string, ...any) {}
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	j := &joiner{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn),
		msgs: make(chan wireMsg, 64), readErr: make(chan error, 1), verbose: verbose}
	if err := j.send(&wireMsg{Type: "hello", Workers: 1}); err != nil {
		return err
	}
	go func() {
		for {
			var m wireMsg
			if err := j.dec.Decode(&m); err != nil {
				j.readErr <- err
				return
			}
			j.msgs <- m
		}
	}()
	for {
		select {
		case err := <-j.readErr:
			// The coordinator closes right after its bye, and select
			// picks among ready cases at random. The reader queued
			// everything it decoded before the error, so look there
			// for a bye before reporting the close.
			for len(j.msgs) > 0 {
				if m := <-j.msgs; m.Type == "bye" {
					verbose("cube: released by coordinator")
					return nil
				}
			}
			return err
		case m := <-j.msgs:
			switch m.Type {
			case "bye":
				verbose("cube: released by coordinator")
				return nil
			case "job":
				if err := j.runJob(&m); err != nil {
					return err
				}
			default:
				// cancel/entries for a job that already ended: stale, drop.
			}
		}
	}
}

type joiner struct {
	conn    net.Conn
	enc     *json.Encoder
	dec     *json.Decoder
	wmu     sync.Mutex
	msgs    chan wireMsg
	readErr chan error
	verbose func(string, ...any)
}

func (j *joiner) send(m *wireMsg) error {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	return j.enc.Encode(m)
}

// shipProof streams an exhausted cube's recorder contents ahead of its
// result message.
func (j *joiner) shipProof(kind string, clauses [][]int) error {
	for len(clauses) > 0 {
		n := len(clauses)
		if n > proofChunk {
			n = proofChunk
		}
		if err := j.send(&wireMsg{Type: "proof", Kind: kind, Clauses: clauses[:n]}); err != nil {
			return err
		}
		clauses = clauses[n:]
	}
	return nil
}

// runJob executes one cube locally, relaying buses both ways while the
// engine runs.
func (j *joiner) runJob(job *wireMsg) error {
	var dopts desugar.Options
	if job.Desugar != nil {
		dopts = *job.Desugar
	}
	jobErr := func(err error) error {
		// Report a per-cube failure and keep the connection: the
		// coordinator turns it into a run failure and says bye/closes.
		j.verbose("cube: cube %d failed: %v", job.ID, err)
		return j.send(&wireMsg{Type: "err", ID: job.ID, Error: err.Error()})
	}
	prog, err := parser.Parse(job.Src)
	if err != nil {
		return jobErr(err)
	}
	sk, err := desugar.Desugar(prog, job.Target, dopts)
	if err != nil {
		return jobErr(err)
	}
	tok := &atomic.Bool{}
	tbus := project.NewBus()
	met := obs.NewMetrics()
	var rec *drat.Recorder
	var sink drat.Sink
	if job.Proof {
		rec = drat.NewRecorder()
		sink = rec
	}
	var bus *sat.Bus
	wc := wireCore{}
	if job.Core != nil {
		wc = *job.Core
	}
	if !job.Proof && !wc.NoShareClauses {
		bus = sat.NewBus(job.NCommon)
	}
	copts := core.Options{
		MaxIterations:      wc.MaxIterations,
		MCMaxStates:        wc.MCMaxStates,
		TracesPerIteration: wc.TracesPerIteration,
		Parallelism:        wc.Parallelism,
		NoPOR:              wc.NoPOR,
		NoShareClauses:     wc.NoShareClauses,
		HeapSampleEvery:    wc.HeapSampleEvery,
		Cancel:             tok,
		Cube:               job.Cube,
		CubeID:             job.ID,
		TraceBus:           tbus,
		ClauseBus:          bus,
		ProofSink:          sink,
		Metrics:            met,
	}
	syn, err := core.New(sk, copts)
	if err == nil && syn.SetupVars() != job.NCommon {
		err = fmt.Errorf("cube: setup prefix mismatch (%d vars here, coordinator has %d) — differing binaries?",
			syn.SetupVars(), job.NCommon)
	}
	if err != nil {
		return jobErr(err)
	}
	j.verbose("cube: running cube %d %v", job.ID, job.Cube)

	type outcome struct {
		res *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := syn.Synthesize()
		done <- outcome{res, err}
	}()

	// Outbound relay shares cursors between the ticker and the final
	// flush; only batches/clauses the local engine produced (origin ==
	// job.ID) go out — everything else arrived from the wire.
	var relayMu sync.Mutex
	var tcur int
	var ccur uint64
	flush := func() {
		relayMu.Lock()
		defer relayMu.Unlock()
		batches, tnext := tbus.Fetch(tcur, -1)
		tcur = tnext
		var out []project.Batch
		for _, b := range batches {
			if b.Origin == job.ID {
				out = append(out, b)
			}
		}
		if len(out) > 0 {
			j.send(&wireMsg{Type: "entries", ID: job.ID, Batches: out})
		}
		if bus != nil {
			tagged, cnext := bus.FetchTagged(ccur)
			ccur = cnext
			var sh []wireClause
			for _, tc := range tagged {
				if tc.Origin == job.ID {
					sh = append(sh, wireClause{Origin: tc.Origin, Lits: dimacsOf(tc.Lits)})
				}
			}
			if len(sh) > 0 {
				j.send(&wireMsg{Type: "clauses", ID: job.ID, Shared: sh})
			}
		}
	}
	stop := make(chan struct{})
	var pumpWG sync.WaitGroup
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				flush()
			}
		}
	}()

	var o outcome
	var connErr error
loop:
	for {
		select {
		case m := <-j.msgs:
			switch m.Type {
			case "entries":
				for _, b := range m.Batches {
					tbus.Publish(b.Origin, b.Entries)
				}
			case "clauses":
				if bus != nil {
					for _, sc := range m.Shared {
						bus.Publish(sc.Origin, litsOf(sc.Lits))
					}
				}
			case "cancel":
				tok.Store(true)
			}
		case err := <-j.readErr:
			connErr = err
			tok.Store(true)
			o = <-done
			break loop
		case o = <-done:
			break loop
		}
	}
	close(stop)
	pumpWG.Wait()
	if connErr != nil {
		return connErr
	}
	flush()

	switch {
	case o.err == nil && o.res.Resolved:
		j.verbose("cube: cube %d resolved after %d iterations", job.ID, o.res.Stats.Iterations)
		return j.send(&wireMsg{Type: "result", ID: job.ID, Resolved: true,
			Candidate: o.res.Candidate, Stats: &o.res.Stats})
	case o.err == nil:
		if rec != nil {
			prem, lem := rec.Export()
			if err := j.shipProof("p", prem); err != nil {
				return err
			}
			if err := j.shipProof("l", lem); err != nil {
				return err
			}
		}
		j.verbose("cube: cube %d exhausted after %d iterations", job.ID, o.res.Stats.Iterations)
		return j.send(&wireMsg{Type: "result", ID: job.ID, Exhausted: true,
			Stats:        &o.res.Stats,
			RemoteTraces: met.Counter("cube.remote_traces").Get()})
	case errors.Is(o.err, core.ErrCanceled):
		j.verbose("cube: cube %d canceled", job.ID)
		return j.send(&wireMsg{Type: "result", ID: job.ID, Canceled: true})
	default:
		return jobErr(o.err)
	}
}
