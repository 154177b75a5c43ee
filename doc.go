// Package repro is a from-scratch Go reproduction of "Toward
// Interlanguage Parallel Scripting for Distributed-Memory Scientific
// Computing" (Wozniak et al., CLUSTER 2015): the Swift/T system — the
// Swift dataflow language, the STC compiler, the Turbine engine, and the
// ADLB load balancer — together with the paper's interlanguage layer:
// embedded Python and R interpreters, SWIG native-code bindings with blob
// bulk data, Tcl extension functions, and the shell interface. FortWrap,
// the paper's Fortran-to-C step, is a build-time source translator and is
// not reproduced: the runtime only ever sees the C header SWIG consumes.
//
// # The compile-once Tcl evaluation pipeline
//
// Swift/T's control plane is Tcl: every Turbine rule action, control
// fragment, and leaf task is a Tcl script string evaluated by a per-rank
// interpreter, so interpreter throughput bounds every benchmark in this
// repo. The internal/tcl package therefore evaluates through a
// compile-once pipeline rather than re-lexing source on every call:
//
//	source text ──(parse, memoized)──> *tcl.Script ──(substitute/Call)──> result
//
// The stages, in order of execution:
//
//   - Parse cache. Interp.Eval memoizes parseScript results in a bounded
//     (LRU-evicted) per-interpreter cache keyed by source text, so a
//     loop body or rule action is parsed once no matter how many times
//     it runs. A proc body compiles when the proc is defined and the
//     compiled form is stored on the immutable proc definition (a body
//     that does not parse raises its error at each call);
//     redefinition installs a fresh definition, which invalidates
//     naturally. The `while`, `for`,
//     `foreach`, `lmap`, and `dict for` commands hoist body compilation
//     out of their iteration loops.
//
//   - Expression ASTs. expr/if/while conditions compile to an AST
//     memoized by source text (Interp.EvalExpr, EvalExprBool), so
//     `while {$i < $n}` stops re-lexing its condition every iteration.
//     Only syntax lives in the AST: variables and bracketed commands are
//     resolved at evaluation time, and operand evaluation stays eager
//     (no short-circuit), exactly as the pre-AST evaluator behaved.
//
//   - Substitution fast path. The parser marks words containing no `$`,
//     `[`, or backslash as literal; evaluation appends their text
//     directly. Non-literal words get a substitution plan compiled at
//     parse time — the $var/[cmd]/backslash scan runs once, backslash
//     sequences resolve into literal segments, and evaluation walks the
//     precomputed segments instead of re-scanning the text per eval.
//     One grammar serves every substitution path: substWord compiles
//     and walks a plan, expr variable nodes precompile their reference
//     into the memoized AST, and malformed constructs become error
//     segments that raise at first evaluation with the scanner's exact
//     messages.
//
//   - Shared program compilation. stc.Output.Script compiles the
//     generated Turbine program (prelude included) exactly once, and
//     every engine/worker rank evaluates the shared immutable
//     *tcl.Script (turbine.Config.ProgramScript, the only program form
//     a rank takes) instead of re-parsing the program per rank at
//     startup. An elastic worker process compiles the program its
//     welcome carries the same way, once. CompileScript also builds
//     each proc command whose words are all literal (the whole prelude
//     and every generated proc): parameters parsed, body compiled. A
//     rank evaluating the script installs that one definition with a
//     map insert, so ranks and repeated runs of one stc.Output share a
//     single parse and compiled body per proc. The command runs as
//     written instead inside a namespace, once the proc command has
//     been renamed or re-registered, and when a word substitutes. Each
//     interpreter starts from a copy of the core command table, built
//     once per process, and swig.Bind parses a native library's header
//     once per process.
//
// What the pipeline evaluates is action text, and what an action's
// words are is decided by the compiler. The turbine:: commands a rank
// registers are exactly those the prelude and the generated procs emit,
// and a test keeps it so (internal/stc TestVocabularyIsTheTraffic):
// allocate, value, store_<type> and literal_<type>, copy_blob, the
// container and refcount commands, rule, rule_members, leaf, spawn,
// engines and the vector bridge. internal/stc compiles
// each expression to an operand: a TD, or a value known without one — a
// literal, a negated numeric literal, a loop variable the engine hands
// the body as a plain integer. A known value never becomes a TD on its
// way to a consumer that can take a value: it rides the action as a
// typed immediate word (i:5, f:1.5, s:text; booleans as integers; blobs
// and containers never), the rule waits only on the operands that are
// TDs (none: released at once), and an operand word is read with
// turbine::value or, for turbine::leaf, lang.DecodeOperand — the one
// decoder both share. An interlanguage call is one turbine::leaf: the
// engine rank decodes its words once into a lang.Leaf record (engine,
// output TD and type, one row per argument: an immediate value or a TD
// id), and the worker runs the record with no Tcl on the way.
// turbine::value is the one typed read: a TD or an immediate reads as
// its own type, or an integer as a float (promoted exactly as
// float64(n)); any other mismatch is an error, so a TD and an immediate
// of the same value read the same. So the message that starts a piece of work carries
// its small data: the code and expr strings of a python(...) call, the
// subscript of xs[7], the bounds of a range, a loop index. A leaf's TD
// inputs ride it too. One held Put is how any rule waits: a rule is one
// Client.Put carrying its wait ids, which the data servers hold until
// they close. A work rule is then queued for any worker; a control rule
// is targeted at the engine that made it, whose Get loop runs its action
// as Tcl, as it runs a fragment turbine::spawn released. The server that
// delivers either writes the row of each input it owns into the Get
// response, which Retrieve and RetrieveChunk serve with no RPC. So a
// leaf costs its worker no chunk load, and a control rule's reads of its
// inputs cost its engine none; an engine holds no wait state of its own.
// A leaf's result rides the other way: its Store joins
// the worker's next Get when the worker's home server owns the output
// (see the failure model), so the worker makes a fraction of a request
// per leaf. The engine's writes — the leaf Puts, the literal stores, the
// inserts and refcount changes — are one-way within a control action:
// they ride one frame per server, a Get's entries (adlb.Client batches
// them, up to maxBatch writes or maxBatchBytes, a larger write going
// alone), the action ends with Client.Flush, and a refused write fails
// the action that made it. So the ensemble's engine sends under a tenth of a
// request frame a leaf (core.TestEngineFramesPerLeaf) where it once made
// two round trips. Actions are
// built with Tcl's list command, never by interpolation, so an immediate
// of any bytes parses back as the word it was. A known value is minted
// as a TD (turbine::literal_*, once per generated proc body) only where
// a TD is what is needed: a container member, a composite function's
// argument. a[k] = e with k known is a direct turbine::container_insert
// under the enclosing block's write reference; only a subscript still
// being computed goes through a sw:ainsert rule. Loops: foreach v in A
// and foreach v, i in A give the member TD and, by value, its subscript;
// foreach v in [lo:hi:step] and foreach v, i in [lo:hi:step] (either
// sign of step; empty when (hi-lo)/step+1 <= 0) give the value and its
// ordinal in the range, both by value. A loop variable cannot be
// assigned. This operand is the seed of the compiler IR on the ROADMAP:
// folding, hoisting, single-reader forwarding and use counts are not
// here yet.
//
// A TD that does become one costs no data op to declare when it is a
// scalar. turbine::allocate of an integer, float, string, blob or void
// is Client.Unique alone (ids come in blocks from the home server, so
// most allocations are no RPC at all), and turbine::literal_* is Unique
// plus one Store. The owning server makes the datum at its first use: a
// Store creates it typed by the value and closed, a rule waiting on it
// creates an open, untyped placeholder that the first Store types. Only
// ids the
// owner issued may come into being this way, so a garbage id still
// fails. The Turbine runtime sends opCreate only for containers;
// Client.Create of a scalar is a typed declaration, whose store keeps its
// type check. A copy (sw:copy, and so sw:aread) names only the type it
// stores: turbine::value reads the source as that type, promoting an
// integer member into a float destination, so nothing asks a TD its type.
//
// Caching is keyed purely on source text and stores parse results, never
// values or bindings, so behaviour under upvar, uplevel, catch, and proc
// redefinition is unchanged; see internal/tcl/cache_test.go for the
// invariants. One kind of namespace state does ride in a cached parse:
// pylite resolves each name once, so its cached AST holds a def's frame
// slot numbers (fixed by the source) and, per module-scope name, the
// number of its slot in that interpreter's global table, trusted only
// while the table's generation is unchanged (Reset and each new global
// name advance it); a cached fragment therefore still sees every
// rebinding, deletion and Reset. The bounded cache type
// itself lives in internal/memo and is shared by every embedded
// interpreter: internal/pylite, internal/rlite, internal/jlite and the
// tcl engine memoize fragment parses through one front door over it,
// memo.Parses — a program and an expression cache under one byte-cost
// rule, one pair of budgets and one combined stats block (invariants in
// internal/memo and the interpreters' cache_test.go files) — so repeated
// fragments, the per-task hot path of ensemble workloads, are parse-free
// in the steady state too.
//
// # The interlanguage engine layer (internal/lang): typed calls
//
// Every embedded language is wired in through one subsystem, and calls
// into it are typed end to end (Engine v2). The value model is
// lang.Value, a tagged union of string, int, float, and blob — blobs
// carry their payload bytes plus Fortran dims and an element kind
// (internal/blob.Elem), the blobutils contract of §III-B made explicit.
// An Engine is Name + Eval(Call) (Value, error) + Reset, where
// Call{Code, Expr, Args, Want} is one typed request: Args are pre-bound
// in the target interpreter as the variables argv1..argvN before Code
// runs, and the Expr result returns as a typed Value, not a rendering.
// python, r and julia are one engine type that owns that argv contract
// (convert every argument before binding any, unbind stale argvN, skip
// blank code, evaluate the expression) and takes two conversions per
// language; the tcl engine keeps its strings-only binding and sh its
// argv. A Registration couples the Engine factory with a Signature
// — fixed string arity (code/expr), variadic typed extras, and a result
// spec (ResultDynamic lets the Swift assignment context choose the
// result type). The rest of the system derives from the registry:
//
//   - internal/swift.LookupBuiltin synthesizes the leaf builtin
//     name(code, expr, args...) for any registered language from its
//     Signature; extra arguments may be string, int, float, or blob, and
//     `blob v = python(...)` / `float f = python(...)` type the result
//     by context (Checker.checkExprAs), defaulting to string;
//   - the compiler emits turbine::leaf <name> <out> <outtype>, with one
//     operand per argument, and the engine rank sends it to a worker as
//     a typed leaf record (lang.Leaf, one chunk frame). Known scalars
//     (the code and expr strings, a literal 1.5, a loop index) are
//     immediates in the record; everything else, and every blob, passes
//     by data-store reference, and no blob or container element data
//     ever renders into text (<name>::eval remains as the string surface
//     for sh app functions and direct Tcl callers);
//   - the worker runs the record through its rank's lang.Table with no
//     Tcl interpreter on the way, moving TD arguments and results
//     through lang.DataPlane (implemented in internal/turbine over the
//     rank's ADLB client); blob values cross the data store with dims
//     and element kind riding alongside the payload
//     (adlb.Value.Dims/Elem), element bytes are never formatted as text
//     anywhere on the route, and the TD operands of one call load as one
//     columnar chunk (DataPlane.LoadChunk over
//     adlb.Client.RetrieveChunk: one RPC per owning server, never one
//     per argument, and none when every operand is an immediate);
//   - core.RunCompiled hands lang.Registered() to lang.Install at rank
//     setup, which builds the rank's engine table (each engine created
//     lazily on first use) and registers the <name>::eval commands; the
//     table applies the retain/reinit state policy (paper §III-C) after
//     every fragment and counts evaluations per language into
//     Result.Evals — in one place, where the contained evaluation
//     enters the engine (a lang.eval.pre fault counts nothing, a panic
//     inside the engine once), the same place lang.Pool counts into
//     PoolStats.Evals.
//
// Inside the interpreters, blob arguments become native vectors: pylite
// binds them as Vec — a zero-copy, list-like view over the packed bytes
// (the SLIRP technique), mutable in place, returned bit-exact — and
// rlite decodes them into real R numeric vectors, repacking results
// under the incoming prototype's element kind and dims when values
// permit (blob.PackLike), so float32/int32 identity round-trips stay
// bit-exact. The strings-only Tcl engine binds raw payload bytes and
// reattaches argument metadata to unmodified results. internal/jlite —
// the Julia-like surface §IV sketches, registered as the julia engine —
// binds blobs as mutable 1-based Vec views with the same zero-copy
// discipline and the same write guards as pylite (integer writes into
// integer element kinds stay on an exact integer path beyond 2^53;
// inexact narrowing errors rather than rounding). An array born inside
// jlite (collect, zeros/ones, a literal, a broadcast .+ .- .* ./ .^ or a
// math function over a vector) is held in that same packed form, an
// int64 or float64 column, so its arithmetic runs as typed loops
// (internal/vecview) with no per-element value; it unpacks into boxed
// elements at the first write a column cannot hold (a push! or store of
// another kind) and at its first scalar read (v[i] or iteration, which
// hand out boxed values), and a broadcast whose per-element result kind
// varies builds a boxed array. A column leaves as a blob as its own
// bytes when no blob argument constrains it — the int64 or float64
// packing a boxed array would get — and under the sole blob argument's
// prototype via blob.PackLike otherwise, all-int64 vectors staying on
// the exact integer path against an int64 prototype.
//
// Swift containers reach the typed plane through the container<->vector
// bridge: vpack(A) gathers a closed int or float array into one blob TD
// (float arrays pack as float64 vectors, int arrays as int64, dims
// recorded as [n]), and vunpack(b) scatters a blob back into an array
// whose element type follows the assignment context — `float A[] =
// vunpack(b)` decodes under the blob's element kind, `int A[] = ...`
// requires exactly integral values. Both compile to sw:vpack/sw:vunpack
// actions carrying TD ids and the element type only, and every
// per-member cost on the route sits inside one vectorised Go call, never
// in the interpreter or on the wire. vunpack is one worker leaf task
// and one StoreChunk write: the container's owner creates an owner-local
// closed member per row. vpack waits twice. When the container closes,
// sw:vpack makes one call, turbine::rule_members: the engine enumerates
// the closed container in Go (one Enumerate RPC — the enumeration never
// becomes a Tcl string) and Puts the gather as a work rule carrying all
// the member ids, which the members' owners hold until the last one
// closes. The released leaf action names only the output, the element
// type and the container; the worker's turbine::vpack_gather enumerates
// the container itself (one RPC, checking the subscripts are a dense
// 0..n-1) and gathers the members' rows the item carried, with one
// RetrieveChunk per other owning server only for members the delivering
// server does not own (a stolen item). So the data-store RPCs of a whole
// vunpack -> vpack trip are the same few at any n
// (internal/core.TestVectorBridgeDataOpsIndependentOfLength holds the
// count equal at two lengths; TestVectorBridgeCountGate pins it for
// swiftbench's vector_scatter_gather program) and element data never
// renders as text. size(A) and join_array(A, sep) read a closed array
// the same way (turbine::container_size, turbine::container_values);
// only foreach over an array, which genuinely iterates in Tcl, still
// takes the enumeration as a list. This is what turns
// typed scalar calls into the paper's §IV array-scale ensembles: scatter
// a packed vector with vunpack, foreach an interpreter fragment per
// element, vpack the results, and aggregate the blob in one call
// (examples/interlang, internal/core/container_roundtrip_test.go,
// swiftbench's vector_scatter_gather workload; BenchmarkGatherScatter1e6
// and the adlb.gather_ns_per_elem probe time the chunk plane under it).
//
// Adding a language is exactly what building jlite required, and no
// more: (1) the interpreter package itself, exposing Exec/EvalExpr/
// Reset plus Set/DelGlobal for argv pre-binding and ParseStats over a
// memo.Parses fragment cache; (2) two conversion functions in
// internal/lang/engines.go — argument -> native binding, and native
// result -> Value given the call and its bound natives — plus one
// lang.Register call returning the shared script engine over them and
// stating its Signature — Fixed (how many leading string args; 2 for
// julia's (code, expr)), Variadic (typed extras allowed), and Result (a
// pinned kind, or ResultDynamic for context typing); and (3) a Dialect
// entry in internal/lang/conformance spelling the probe fragments in the
// new language. Nothing else changes — the checker, prelude, and core all
// derive from the registration (`blob v = julia(code, expr, args...)`
// worked with zero edits to check.go, prelude.go, or core.go), proven
// end to end by the toy-engine test (internal/core/lang_e2e_test.go)
// and enforced by the conformance matrix: the harness iterates
// lang.Registered(), runs every value-kind × dims × policy ×
// argv-unbinding case against every engine (bit-exact byte comparison
// included), and fails if a registered engine lacks a dialect — so a
// fifth language is covered by construction, Swift -> engine -> Swift
// (internal/lang/conformance, internal/core/typed_roundtrip_test.go).
//
// # Data plane and memory model
//
// The hot data path is allocation-free end to end: a million-element
// gather -> engine -> scatter round trip moves one contiguous buffer
// per column, not one boxed value per element
// (BenchmarkGatherScatter1e6; the allocs/op ceiling is committed in
// alloc_budget.txt and enforced in CI). Three mechanisms compose:
//
// Columnar chunks (internal/chunk, modeled on TiDB's vectorized chunk).
// A batch of values travels as a chunk: a one-byte kind tag per row
// plus one contiguous buffer per element class — Num (8 bytes per
// numeric row, little-endian, bit-identical to both the data-store
// encoding and a packed blob payload), Raw+Off for strings and blobs,
// Meta for blob dims/element kinds. The chunk row is the one wire form
// of a value: adlb.Client.RetrieveChunk and StoreChunk move a chunk as
// one RPC per owning server with a chunk frame on the wire (decode
// validates every cross-column invariant, so a hostile frame cannot make
// readers index out of bounds), Store sends a one-row chunk, Retrieve is
// a one-id RetrieveChunk, and turbine::value reads a TD's row through
// chunk.Reader like every other reader of a stored scalar; lang.Chunk
// aliases the same type, DataPlane.LoadChunk/StoreChunk carry it to the
// turbine layer, and vpack/vunpack convert between a homogeneous
// numeric chunk's Num column and a packed blob with at most a slice
// alias. The same type at every layer means no kind remapping at any
// boundary.
//
// Pooled wire buffers. A message travels in a frame drawn from a
// world-level pool, and is built in it: the ADLB encoder draws its frame
// with mpi.Comm.Frame — once, sized to the value, when a Store, a Put or
// a Get reply knows its size; by doubling, each larger frame drawn from
// the pool and the smaller one released, otherwise — and hands it over
// with Comm.SendFrame, which takes ownership whatever it returns: the
// sender must not touch the frame again. A local receiver owns the very
// frame from Recv on; over TCP the frame is written from where it lies
// (writev) and goes back to the sender's pool. A receiver hands a frame
// back via Comm.Release once every slice aliasing it is dead, at most
// once. Comm.Send keeps its copying contract on top: draw, copy,
// SendFrame. A draw takes the smallest fitting frame, never one over
// twice its size, so a small message cannot take or pin a blob's frame;
// among equals the most recently released goes first, so tests can pin
// the contract deterministically (mpi.TestFramePoolReuseAliasing,
// TestFramePoolBestFit). cmd/swiftvet's framerelease analyzer checks the
// transfer points: a Frame reaches SendFrame or Release exactly once,
// and nothing touches it after.
//
// The zero-copy aliasing contract. Payload slices returned by
// adlb.Client.Retrieve and RetrieveChunk alias the RPC response frame,
// and a value is copied once on its way out: Store's one-row chunk and
// the server's reply to a one-id retrieve alias the value's own bytes
// (never the server's reused gather buffer, whose next append would
// write into a stored datum). Returned slices are valid until the next
// call on the same Client returns: that call retires the pinned frames
// at its start and releases them only after its own request is on the
// wire (encode may legitimately read a
// retired frame — a retrieved blob stored straight back). Consumers that
// keep payloads longer must copy on escape — lang.ChunkToValues takes
// copyBytes because engines retain argv bindings across later
// data-plane calls — while bulk paths that finish inside the window
// (vpack, vunpack, the gather/scatter benchmark) stay zero-copy. Rows a
// work item carried alias its Get response frame, which lives longer:
// until the client's next Get, Fail or Leave is on the wire. On the
// server side the mirror rule: request frames are released after
// handling except for those that carry a store — a Get with a Store or
// a StoreChunk among its entries — whose decoded rows alias the frame
// for the datum's lifetime (zero-copy store), and mutating a stale
// client view never corrupts a datum
// (adlb.TestZeroCopyAliasingContract, TestResultFrameSurvivesPoolReuse).
//
// # Transport
//
// The simulated MPI world (internal/mpi) has two transports under one
// Comm surface. In-process, ranks are goroutines and Send moves a pooled
// frame between mailboxes. Out-of-process, the same world spans OS
// processes over TCP (mpi.ListenTCP / mpi.JoinTCP): a hub process holds
// the engines, the ADLB servers, and the data store, and each worker
// process joins with a length-prefixed handshake, is assigned a fresh
// rank (monotonic, never reused — a replacement consumes a new slot),
// and exchanges data frames that carry src/dest/tag exactly like local
// envelopes. The frame pool and the zero-copy aliasing contract survive
// the wire: inbound payloads are read directly into pooled frames, and
// delivery into a local mailbox is the same ownership transfer as a
// local Send. Ranks routed over a dead connection swallow sends (the
// crash is the server's business, not the sender's), and hub relay
// covers worker-to-worker traffic, so client code cannot tell which
// transport a peer is on.
//
// Membership is elastic on top of this: adlb.Config.Elastic switches
// the servers from the static layout roster to the set of clients that
// actually registered (plus the pre-registered hub-local engines), so
// termination, drain, and the hang watchdog close over the workers that
// showed up — workers may join mid-run and pick up queued work.
// Crash detection is two-sided: heartbeat frames with a server-side
// timeout catch wedged peers, and EOF/read errors catch clean deaths;
// either way the hub tombstones the route and adlb.NotifyCrashed
// converts the loss into the same Leave the lease-reclaim path already
// handles. core.ServeElastic / core.ElasticWorker (cmd/turbine -listen,
// cmd/swift-worker) package the whole shape, and examples/elastic runs
// the paper's §IV ensemble across real processes, SIGKILLing a worker
// mid-lease and joining a replacement mid-run.
//
// # Failure model
//
// Leaf-task execution is fault-tolerant end to end. Workers take work
// under a lease: adlb.Client.GetLeased hands out each work item with a
// server-tracked lease id, settled implicitly by the worker's next Get
// to its server (success) or explicitly by Client.Fail (failure, with a
// retriable flag). One Get brings back the worker's share of the queue,
// up to 8 items, which the worker runs one by one with no round trip
// between them; a task's writes for the worker's home server — a leaf
// record's result, a Store like any other — ride the next Get there
// with its settle, as entries of one ordered list: the server applies
// them, then settles the lease and announces the closes, so a leaf
// costs the worker a fraction of a round trip and its store and settle
// are one message. A task that fails or whose worker departs before
// that Get leaves its home outputs open, its pending writes dropped, so
// the re-run's store lands once; a write the server refuses fails the
// lease retriably with the refusal, at the server, as a Fail after a
// refused Store would. A write for another server goes to it first, and
// the task's settle then reaches its server before the worker starts
// another task, which keeps to one task the window in which a worker
// lost after that Store has a re-run refused as already set; so does a
// Put, so that the item it made is not held behind the next task. A
// lease ends one way, by a settle riding a Get — the task done, failed,
// or handed back never started — so a Fail is a Get that wants
// nothing, carrying the entries of the tasks that ended before it, and
// a lease settles at most once: a Fail of a lease already ended is
// refused. A worker that departs mid-task (Client.Leave, a Get that
// departs, or a crash that adlb.NotifyCrashed turns into the same Get)
// has its finished tasks' writes and settles applied and its
// outstanding leases reclaimed by
// the server, the items requeued at their original priority — items the
// victim had targeted at itself retarget to AnyRank so a survivor can
// take them; the items a Leave hands back unstarted are requeued with no
// attempt charged. A retriably-failed task is requeued at most
// twice (3 attempts in all); past the budget — or immediately, when the failure is not retriable — the
// task is poisoned: the run ends with an error naming the task and the
// original failure reason rather than hanging or silently dropping work.
//
// What is retriable: interpreter panics (contained per fragment by
// lang's recover wrapper, which Resets the engine before the retry under
// every state policy), injected faults, and data-plane load/store
// errors — all surfaced as lang.TaskError with Retriable set. What is
// not: deterministic evaluation errors from user code (an undefined
// function fails the same way every attempt), which poison on the first
// failure. One bad fragment fails one task; it never takes down the
// rank, and zero simulated processes die.
//
// Two backstops make failures diagnosable instead of silent. The ADLB
// servers run a hang watchdog (Config.WatchdogIdle of wall time): a
// world whose remaining work can never execute — queued items no one
// asks for, leases that will never settle, unfilled TDs — ends with a
// diagnostic error listing the stranded work and parked ranks instead
// of deadlocking. And a server that exits while clients are parked in Get
// releases them with an explicit shutdown error rather than leaving
// them in Recv forever.
//
// Every fault path is exercised deterministically through
// internal/faultinject: named sites (adlb.get.deliver,
// adlb.put.targeted, lang.eval.pre, dataplane.store, turbine.worker.task,
// adlb.server.loop, and the transport sites mpi.tcp.conn.drop,
// mpi.tcp.heartbeat, mpi.tcp.frame) with nth-hit error/panic/crash/delay
// plans and no time-based randomness; a worker killed mid-task is a
// crash plan on turbine.worker.task, not a separate knob. The chaos
// regression matrix in internal/core/fault_test.go, the lease lifecycle
// tests in internal/adlb/lease_test.go, and the TCP matrix in
// internal/mpi/tcp_test.go (SIGKILL mid-task, join mid-run, heartbeat
// loss, torn frames) run under -race in CI. Counters:
// Result.TaskRetries/TaskFailures, adlb Stats.Requeued/Poisoned/
// LeasesIssued/LeasesReclaimed, and the UnfilledTDs gauge, which counts
// the data-store entries waited on by a rule, or created, but never
// closed at drain (a scalar nobody stored or waited on never existed). A
// rule a server still holds at drain, work or control, fails the run,
// named by its action.
//
// A run ends at its drain. A server sleeps in Recv unless a steal
// retry or the watchdog is armed, and checks whether its run is over
// once per loop iteration, after dispatch and housekeeping, so it
// returns as soon as its clients have NO_MORE_WORK. The stall diagnostics meet at the master: every
// other server sends the master its list of stalled rules (empty when
// it has none) and returns nil; the master waits for all of them and
// returns one error naming the stalled rules of every server, in server
// order. That error aborts the world only after every client's
// NO_MORE_WORK is queued, and a receive still delivers a message queued
// before an abort (mpi), so each client sees its drain.
//
// # Serving model
//
// Where everything above runs one program per world and tears the world
// down, internal/serve (the swiftd command) keeps one warm ADLB world
// resident and serves many tenants over HTTP/JSON: whole Swift program
// submissions and typed single-fragment calls. JSON with base64 blobs
// (serve.WireValue, carrying dims and element type) is the encoding of
// the HTTP edge only: EvalFragment decodes and validates the arguments
// once, after admission and before any worker is involved (a blob whose
// dims or element size do not match its payload is a 400; a body past
// the transport's frame bound is a 413), and encodes the result once on
// the way out. Inside the warm world a fragment task and its response
// are each one data-plane chunk frame (adlb.EncodeChunkFrame: header
// rows, then one row per value), so a blob crosses the world as raw
// bytes. Three client roles share the warm world — a gateway that
// submits fragment tasks, a collector that routes results back to
// waiting requests, and leased-Get fragment workers, each owning a
// lang.Pool of per-tenant interpreters. The gateway never parks in Get,
// so its home server counts it mid-task and the otherwise-quiescent
// world stays open with no special opcode; shutdown sends the collector
// a sentinel, both Leave, and ordinary Safra termination drains the
// workers. Once Close has
// begun, EvalFragment and RunProgram return "serve: shutting down"
// instead of entering the world, including callers that raced it.
//
// Warmth is byte-budgeted, not unbounded: compiled programs live in a
// memo.Budget LRU keyed by source hash, and every script engine's parse
// cache (python, r, julia, tcl) is a memo.Parses priced by source bytes,
// with its hits, misses, and bytes evicted surfaced at /statsz.
// Isolation is enforced at tenant boundaries: an engine reused across
// tenants is Reset (state wiped, parse caches kept), sessions are sticky
// to a worker rank so interpreter state survives within a (tenant,
// session), and the
// cross-engine conformance dialects drive a chaos suite proving no
// tenant ever observes another's globals — under concurrency and under
// injected interpreter panics.
//
// Admission control is per tenant: a concurrency bound, a wait queue
// behind it, and a priority that orders the tenant's fragments in the
// ADLB queues (a program submission runs in a world of its own, where
// there is no other tenant to overtake).
// Arrivals past both bounds get a typed OverloadError — HTTP 429 with
// Retry-After — so a saturated tenant backs up its own queue while an
// interactive tenant's median latency stays test-enforced under
// internal/serve's documented bound. BenchmarkServeConcurrentClients
// pins the reason the service exists: a repeat fragment on the warm
// world against a cold per-request world, with a 5x floor enforced by
// TestWarmServeSpeedupOverColdWorlds.
//
// Benchmarks: swiftbench (bench/) times the interpreter alone
// (tcl.rule_eval_us, tcl.proc_call_us, lang.eval_us.*) and typed blob
// binding (lang.blob_bind_mb_per_s) as per-layer probes beside its
// end-to-end workloads; BenchmarkC5ControlScaling and
// BenchmarkFig2WorkerScaling measure the paper's control and worker
// scaling. CHANGES.md records the numbers for each PR.
//
// # Static invariants
//
// Several of the invariants above are load-bearing but invisible to the
// compiler: the wire codec's sticky-error discipline, the frame pool's
// ownership transfer, the counter/snapshot mirroring. cmd/swiftvet is a
// stdlib-only analyzer suite (go/parser + go/types; no external
// dependencies) that enforces them at vet time. `go run ./cmd/swiftvet
// ./...` from the repo root exits nonzero on any violation; CI runs it
// next to go vet. The analyzers and their contracts:
//
//   - codecdiscipline: every constructed wire decoder (adlb's, and the
//     leaf-record decoder in internal/lang) calls finish() on every
//     non-error return path after a read (sticky decode errors and
//     trailing bytes or rows must be checked); encoder buffers leave the
//     codec file only via frame() or send(); a frame() error is never
//     blank-discarded.
//   - framerelease: every frame obtained from Comm.Recv/RecvTimeout that
//     a path uses is Released exactly once on that path, unless its
//     ownership is transferred (returned, stored, appended, or passed
//     on); no use or escape after Release. The same discipline covers
//     the transport's framePool directly: a buffer from framePool.get is
//     put back exactly once unless ownership transfers, and a frame from
//     Comm.Frame reaches Comm.SendFrame or Release exactly once, with no
//     use, escape, Release or second send after SendFrame, which hands
//     it to the receiver (a received frame may be sent on under the
//     same rule). A function that
//     consults a retention predicate (a bool retains* function: adlb's
//     retainsRequestFrame keeps a Get frame iff one of its entries is a
//     Store or a StoreChunk) releases only under `if !retains...(...)`.
//   - statsmirror: every exported atomic.Int64 counter in a Stats struct
//     has a same-named int64 mirror in its StatsSnapshot sibling, no
//     stale mirrors survive counter removal, and Snapshot() loads and
//     assigns every counter. internal/statstest is the runtime backstop
//     proving the copy actually happens.
//   - atomiccopy: structs holding atomic counters or sync primitives
//     move only by pointer — never copied by assignment, parameter,
//     result, receiver, call argument, or range value.
//   - faultsites: every faultinject crash point names a declared Site
//     constant (no ad-hoc strings), site values are unique, and no
//     declared site is dead.
//
// The root-level bench_test.go is the paper-claim ledger: the table in
// its header names, for each figure and claim of the paper, its section,
// the test that asserts its shape, and the benchmark beside it. See
// bench/README.md for the end-to-end and per-layer benchmark (what each
// metric measures and what moves it) and CHANGES.md for what each PR did
// and measured.
package repro
