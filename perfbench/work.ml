(* Workloads, run hygiene, and one measured Fig. 3 instance.

   An instance is one full [Balanced_ba.Make(S).run] (phases A-H), built
   from its seed exactly as [Runner] builds the same cell: the lock-step
   workloads mirror [Runner.run] (sparse backend, silent corrupt set), the
   partition workload mirrors [Runner.run_attack_cell] with the
   [equivocate] strategy and the [partition] condition on the async
   backend. The benchmark's tests pin that equivalence by transcript
   digest. *)

module Rng = Repro_util.Rng
module Parallel = Repro_util.Parallel
module Network = Repro_net.Network
module Metrics = Repro_net.Metrics
module Sched = Repro_net.Sched
module Wire = Repro_net.Wire
module Params = Repro_aetree.Params
module Balanced_ba = Repro_core.Balanced_ba
module Runner = Repro_core.Runner
module Srds_intf = Repro_core.Srds_intf
module Strategy = Repro_adversary.Strategy
module Condition = Repro_adversary.Condition
module Sha256 = Repro_crypto.Sha256

type scheme = Owf | Snark

type net_mode =
  | Lockstep  (** sparse lock-step backend, no active adversary *)
  | Partition
      (** async backend under [Runner.default_chaos], [equivocate] strategy,
          [partition] condition *)

type workload = {
  name : string;
  scheme : scheme;
  n : int;
  beta : float;
  mode : net_mode;
  seeds_per_run : int;
      (** distinct instance seeds one run cycles through; the exact counts
          are their mean *)
  pinned_digest : string;
      (** transcript digest of the warm-up instance at [pinned_seed] *)
}

let pinned_seed = 1

let workloads =
  [
    {
      name = "snark-256";
      scheme = Snark;
      n = 256;
      beta = 0.1;
      mode = Lockstep;
      seeds_per_run = 8;
      pinned_digest =
        "e6ab966935bca24fcb141ccba7e77564f36e6eaa9849c2522dcb54712837005e";
    };
    {
      name = "owf-256-partition";
      scheme = Owf;
      n = 256;
      beta = 0.1;
      mode = Partition;
      seeds_per_run = 12;
      pinned_digest =
        "a71999ee9c58a58ed14d4d3288ccf16159058ee23533d8db2410c195731c7471";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* Instance seeds are drawn from the fixed pool 1..[seed_pool], every one
   of which passes its workload's rule. Fig. 3 agrees only w.h.p. in n, and
   at n = 256 a seed drawn from a wide range can land in that tail: at seed
   678966 the root certificate gathers 22 signatures against a threshold of
   23 and no party decides, on the lock-step backend too. That tail is a
   property of the protocol's parameters, not a cost the benchmark measures. *)
let seed_pool = 24

(* The instance seeds of one run: a pure function of the run seed. *)
let instance_seeds w ~run_seed =
  let pool = Array.init seed_pool (fun i -> i + 1) in
  Rng.shuffle (Rng.create run_seed) pool;
  Array.sub pool 0 w.seeds_per_run

(* --- run hygiene --- *)

(* Observability knobs the libraries read from the environment at start-up.
   Each one changes what an instance costs, so a timed run forces all of
   them off in-process and reports which were set. *)
let env_knobs =
  [ "REPRO_AUDIT"; "REPRO_COUNTERS"; "REPRO_TRACE"; "REPRO_TRACE_FILE"; "REPRO_DOMAINS" ]

let hygiene () =
  let set = List.filter (fun k -> Sys.getenv_opt k <> None) env_knobs in
  (* One domain: the pool's scheduling makes allocation inexact, and two
     domains were no faster on the measuring box. *)
  Parallel.set_domains 1;
  Repro_obs.Audit.disable_global ();
  Repro_obs.Counters.disable ();
  Repro_obs.Trace.set_output None;
  Repro_obs.Trace.set_enabled false;
  Repro_obs.Trace.set_gc_capture false;
  Logs.Src.set_level Balanced_ba.src (Some Logs.Warning);
  set

(* Every instance starts from the state a fresh process has: the digest
   caches carry over from one instance to the next otherwise. *)
let fresh () =
  Repro_crypto.Hashx.clear_cache ();
  Repro_crypto.Wots.clear_cache ();
  Gc.compact ()

(* --- the protocol under a scheme --- *)

type tap = round:int -> Wire.msg -> unit

type impl = {
  run :
    ?tap:tap ->
    ?backend:Sched.backend ->
    ?condition:Sched.condition ->
    Balanced_ba.config ->
    Balanced_ba.result;
  setup : n:int -> seed:int -> unit;
}

module Impl (S : Srds_intf.SCHEME) = struct
  module B = Balanced_ba.Make (S)
  module K = Srds_intf.Batch (S)

  let run ?tap ?backend ?condition cfg = B.run ?tap ?backend ?condition cfg

  (* Phase A alone, with the calls and seed derivation [B.make_ctx] uses. *)
  let setup ~n ~seed =
    Repro_crypto.Wots.clear_cache ();
    let rng = Rng.create seed in
    let params = Params.default n in
    let setup_rng = Rng.of_label rng "srds-setup" in
    let pp, master = S.setup setup_rng ~n:params.Params.num_slots in
    ignore
      (Sys.opaque_identity
         (K.keygen_all pp master setup_rng ~count:params.Params.num_slots))

  let impl = { run; setup }
end

module Owf_plain = Impl (Repro_core.Srds_owf)
module Owf_timed = Impl (Timed_srds.Make (Repro_core.Srds_owf))
module Snark_plain = Impl (Repro_core.Srds_snark)
module Snark_timed = Impl (Timed_srds.Make (Repro_core.Srds_snark))

let impl ~timed = function
  | Owf -> if timed then Owf_timed.impl else Owf_plain.impl
  | Snark -> if timed then Snark_timed.impl else Snark_plain.impl

(* --- one instance --- *)

(* The exact, seed-determined quantities of one instance. *)
type counts = {
  bits_max : int;  (** max honest per-party sent+received bits *)
  bits_p99 : float;
  bytes_total : int;
  msgs_total : int;
  locality_max : int;
  rounds : int;
  decide_vt : int;
}

(* The async scheduler's delivery statistics; all 0 on lock-step. *)
type sched_counts = {
  sends : int;
  max_latency : int;
  pre_gst_lost : int;
  post_gst_late : int;
}

(* An instance keeps only these: holding its network would keep every
   instance's state alive for the whole run. *)
type outcome = {
  ok : bool;  (** the workload's agreement/validity/decision rule held *)
  verdict : string;
  counts : counts;
  sched : sched_counts;
}

let sched_of net =
  match Network.async_stats net with
  | Some s ->
    {
      sends = s.Sched.st_sends;
      max_latency = s.Sched.st_max_latency;
      pre_gst_lost = s.Sched.st_pre_gst_lost;
      post_gst_late = s.Sched.st_post_gst_late;
    }
  | None -> { sends = 0; max_latency = 0; pre_gst_lost = 0; post_gst_late = 0 }

let counts_of (r : Balanced_ba.result) =
  let rep = r.Balanced_ba.report in
  let m = Network.metrics r.Balanced_ba.net in
  let msgs = ref 0 in
  for p = 0 to Network.n r.Balanced_ba.net - 1 do
    msgs := !msgs + Metrics.party_msgs_sent m p
  done;
  {
    bits_max = 8 * rep.Metrics.max_bytes;
    bits_p99 = 8. *. rep.Metrics.p99_bytes;
    bytes_total = rep.Metrics.total_bytes;
    msgs_total = !msgs;
    locality_max = rep.Metrics.max_locality;
    rounds = rep.Metrics.rounds;
    decide_vt = Network.virtual_time r.Balanced_ba.net;
  }

let run_instance ?tap ?(timed = false) w ~seed =
  let impl = impl ~timed w.scheme in
  let n = w.n and beta = w.beta in
  let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
  let r, rule =
    match w.mode with
    | Lockstep ->
      let rng = Rng.create seed in
      let corrupt = Rng.subset rng ~n ~size:(int_of_float (beta *. float_of_int n)) in
      let r = impl.run ?tap (Balanced_ba.default_config ~n ~corrupt ~inputs ~seed ()) in
      (r, fun _ -> r.Balanced_ba.decided_fraction >= 0.99)
    | Partition ->
      let strategy = Option.get (Strategy.find ~n ~seed "equivocate") in
      let adversary = Strategy.instantiate strategy ~seed in
      let cond = Option.get (Condition.find "partition") in
      let cfg = Runner.default_chaos ~seed in
      let condition = Condition.prepare cond ~n ~beta ~seed ~cfg in
      let rng = Rng.create seed in
      let corrupt = Rng.subset rng ~n ~size:(Condition.static_size cond ~n ~beta) in
      let r =
        impl.run ?tap ~backend:(Sched.Async cfg) ~condition
          (Balanced_ba.default_config ~adversary ~n ~corrupt ~inputs ~seed ())
      in
      (* The attack-matrix rule for condition cells. *)
      (r, fun sc -> r.Balanced_ba.decided_fraction > 0.95 && sc.post_gst_late = 0)
  in
  let sched = sched_of r.Balanced_ba.net in
  {
    ok = r.Balanced_ba.agreed && r.Balanced_ba.valid && rule sched;
    verdict =
      Printf.sprintf "agreed=%b valid=%b decided=%.4f post_gst_late=%d"
        r.Balanced_ba.agreed r.Balanced_ba.valid r.Balanced_ba.decided_fraction
        sched.post_gst_late;
    counts = counts_of r;
    sched;
  }

(* --- transcript digests --- *)

(* SHA-256 over every send, in send order. [~full:true] is
   [Runner.run_digest]'s format (round|src|dst|tag|payload per message).
   The default hashes each distinct payload buffer once and feeds its
   digest instead: a multicast hands the same buffer to every recipient,
   so this pins the same transcript at a fraction of the hashing (owf at
   n = 1024 moves gigabytes). *)
let transcript_tap ?(full = false) () =
  let ctx = Sha256.init () in
  let feed_str s = Sha256.feed ctx (Bytes.unsafe_of_string s) 0 (String.length s) in
  let last = ref Bytes.empty in
  let last_hex = ref (Sha256.hex (Sha256.digest Bytes.empty)) in
  let tap ~round (m : Wire.msg) =
    feed_str (Printf.sprintf "%d|%d|%d|%s|" round m.Wire.src m.Wire.dst m.Wire.tag);
    if full then Sha256.feed ctx m.Wire.payload 0 (Bytes.length m.Wire.payload)
    else begin
      if m.Wire.payload != !last then begin
        last := m.Wire.payload;
        last_hex := Sha256.hex (Sha256.digest m.Wire.payload)
      end;
      feed_str !last_hex
    end;
    feed_str "\n"
  in
  (tap, fun () -> Sha256.hex (Sha256.finish ctx))

(* --- measurement --- *)

type sample = {
  wall : float;  (** s *)
  cpu : float;  (** s, user + system *)
  alloc_words : float;  (** words allocated by the instance *)
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
  top_heap_words : int;
  outcome : outcome;
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated so far: minor-heap allocation plus blocks allocated
   directly in the major heap. The minor part comes from [Gc.minor_words],
   which reads the allocation pointer; the minor count in [Gc.counters] is
   not exact to the word. *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Runs [f] from a fresh state and measures it. *)
let sampled f =
  fresh ();
  let q0 = Gc.quick_stat () in
  let a0 = allocated () in
  let c0 = cpu_now () in
  let t0 = Unix.gettimeofday () in
  let outcome = f () in
  let t1 = Unix.gettimeofday () in
  let c1 = cpu_now () in
  let a1 = allocated () in
  let q1 = Gc.quick_stat () in
  {
    wall = t1 -. t0;
    cpu = c1 -. c0;
    alloc_words = a1 -. a0;
    minor_collections = q1.Gc.minor_collections - q0.Gc.minor_collections;
    major_collections = q1.Gc.major_collections - q0.Gc.major_collections;
    promoted_words = q1.Gc.promoted_words -. q0.Gc.promoted_words;
    top_heap_words = q1.Gc.top_heap_words;
    outcome;
  }

let time_setup w ~seed =
  fresh ();
  let t0 = Unix.gettimeofday () in
  (impl ~timed:false w.scheme).setup ~n:w.n ~seed;
  Unix.gettimeofday () -. t0

(* Warm-up: one untimed instance at the pinned seed, whose transcript
   digest must equal the workload's pinned value. Returns the digest and
   the outcome. *)
let warm_up w =
  fresh ();
  let tap, digest = transcript_tap () in
  let o = run_instance ~tap w ~seed:pinned_seed in
  (digest (), o)

type run = {
  attempted : int;
  failed : int;
  failures : string list;  (** one line per failed instance *)
  setups : float list;  (** s, one setup timed before each instance *)
  samples : sample list;  (** in run order *)
  per_seed : (int * sample) list;  (** first sample of each instance seed *)
  mismatches : string list;
      (** a repeated seed whose exact counts or allocation differed from its
          first visit *)
}

(* The closed loop: one client, instances back to back, cycling through
   [seeds] until [seconds] have passed and every seed ran once. A setup is
   timed before every instance, so that setup and instance timings are
   medians over the same window of the run. *)
let measure w ~seeds ~seconds =
  let k = Array.length seeds in
  let t_start = Unix.gettimeofday () in
  let setups = ref [] and samples = ref [] and per_seed = ref [] in
  let failures = ref [] and mismatches = ref [] in
  let i = ref 0 in
  while !i < k || Unix.gettimeofday () -. t_start < seconds do
    let seed = seeds.(!i mod k) in
    setups := time_setup w ~seed :: !setups;
    let s = sampled (fun () -> run_instance w ~seed) in
    samples := s :: !samples;
    if not s.outcome.ok then
      failures := Printf.sprintf "%s seed %d: %s" w.name seed s.outcome.verdict :: !failures;
    (match List.assoc_opt seed !per_seed with
    | None -> per_seed := (seed, s) :: !per_seed
    | Some first ->
      if first.outcome.counts <> s.outcome.counts || first.alloc_words <> s.alloc_words then
        mismatches :=
          Printf.sprintf "%s seed %d: counts or allocation differ on a repeat" w.name seed
          :: !mismatches);
    incr i
  done;
  {
    attempted = !i;
    failed = List.length !failures;
    failures = List.rev !failures;
    setups = List.rev !setups;
    samples = List.rev !samples;
    per_seed = List.rev !per_seed;
    mismatches = List.rev !mismatches;
  }

(* --- the host --- *)

(* Peak resident set of this process, MB, from /proc (0 where absent). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* A fixed kernel that calls no repository code (stdlib digests, hash
   table, list allocation): its time tracks the host's speed, as context
   for the run's timings. Never used to rescale them. *)
let ref_kernel () =
  let t0 = Unix.gettimeofday () in
  let tbl = Hashtbl.create 4096 in
  let acc = ref (Digest.string "perfbench") in
  for i = 1 to 300_000 do
    acc := Digest.string (!acc ^ string_of_int i);
    Hashtbl.replace tbl (i land 8191) !acc;
    ignore (Sys.opaque_identity (List.init 64 (fun j -> i + j)))
  done;
  ignore (Sys.opaque_identity (Hashtbl.length tbl));
  Unix.gettimeofday () -. t0
