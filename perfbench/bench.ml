(* The two kinds of run: end-to-end metrics with every observability switch
   off, and the per-layer ledger of a separate traced pass. *)

type result = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed instances and broken checks *)
  metrics : Ledger.metric list;
  log : string list;  (** human-readable lines *)
  events : Repro_obs.Trace.event list;  (** spans of the last traced instance *)
  kernel_end : float;  (** s, {!Work.ref_kernel} at the end of the run *)
}

let m = Ledger.metric

(* [Mathx.median] takes the lower of the two middle values of an even
   count; the benchmark only compares medians taken the same way. *)
let median_of f l = Repro_util.Mathx.median (List.map f l)
let mean_of f l = Repro_util.Mathx.mean (List.map f l)

(* The exact counts of a run: means over its instance seeds. Each is exact
   per seed, but seeds differ (sortition draws how many parties sign, and
   so how large a certificate is); the mean of a run's seeds varies less
   from run to run than their median. *)
let count_metrics (per_seed : Work.outcome list) =
  let c f = mean_of (fun (o : Work.outcome) -> f o.Work.counts) per_seed in
  [
    m "party_bits_max" "bits" (c (fun k -> float_of_int k.Work.bits_max));
    m "party_bits_p99" "bits" (c (fun k -> k.Work.bits_p99));
    m "bytes_total" "bytes" (c (fun k -> float_of_int k.Work.bytes_total));
    m "msgs_total" "count" (c (fun k -> float_of_int k.Work.msgs_total));
    m "locality_max" "count" (c (fun k -> float_of_int k.Work.locality_max));
    m "rounds" "count" (c (fun k -> float_of_int k.Work.rounds));
    m "decide_vt" "vt" (c (fun k -> float_of_int k.Work.decide_vt));
  ]

(* The end-to-end timings are means over the run: the closed loop's wall per
   instance, the inverse of its throughput. The host's speed switches
   between regimes for 10-20 s at a time, so a run's samples come from a
   mix of regimes. The mean moves smoothly with that mix, while the median
   jumps from one regime to the other. In five of six measured sets of runs
   the mean spread less from run to run than the median (README.md). *)
let end_to_end w ~seeds ~seconds =
  let r = Work.measure w ~seeds ~seconds in
  let kernel_end = Work.ref_kernel () in
  let per_seed = List.map snd r.Work.per_seed in
  let wall (s : Work.sample) = s.Work.wall in
  {
    attempted = r.Work.attempted;
    failed = r.Work.failed;
    problems = r.Work.failures @ r.Work.mismatches;
    metrics =
      [
        m "setup_s" "s" (Repro_util.Mathx.mean r.Work.setups);
        m "instance_s" "s" (mean_of wall r.Work.samples);
        m "alloc_mwords" "Mwords"
          (mean_of (fun (s : Work.sample) -> s.Work.alloc_words /. 1e6) per_seed);
        m "peak_rss_mb" "MB" (Work.peak_rss_mb ());
      ]
      @ count_metrics (List.map (fun (s : Work.sample) -> s.Work.outcome) per_seed);
    log =
      Printf.sprintf "timed instances: %d; wall (s): %s; setup (s): %s" r.Work.attempted
        (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" (wall s)) r.Work.samples))
        (String.concat " " (List.map (Printf.sprintf "%.3f") r.Work.setups))
      :: List.map
           (fun (seed, (s : Work.sample)) ->
             let c = s.Work.outcome.Work.counts in
             Printf.sprintf
               "  seed %d: alloc %.0f words, bits max %d p99 %.0f, bytes %d, msgs %d, locality %d, rounds %d, vt %d; %s"
               seed s.Work.alloc_words c.Work.bits_max c.Work.bits_p99 c.Work.bytes_total
               c.Work.msgs_total c.Work.locality_max c.Work.rounds c.Work.decide_vt
               s.Work.outcome.Work.verdict)
           r.Work.per_seed;
    events = [];
    kernel_end;
  }

(* Pairs of one untraced and one traced instance at the same seed, until
   the time is up: the untraced one gives the overhead baseline and the GC
   figures, the traced one the ledger, and their exact counts must agree —
   the timing functor, the spans and the tap are transparent. *)
let per_layer w ~seeds ~seconds ~kernel_start =
  let k = Array.length seeds in
  let t_start = Unix.gettimeofday () in
  (* Only the last instance's spans are written out; drop the others. *)
  let last_events = ref [] in
  let rec go i acc =
    if i >= 1 && Unix.gettimeofday () -. t_start >= seconds then List.rev acc
    else begin
      let seed = seeds.(i mod k) in
      let plain = Work.sampled (fun () -> Work.run_instance w ~seed) in
      let traced = Ledger.traced_instance w ~seed in
      last_events := traced.Ledger.t_events;
      go (i + 1) ((seed, plain, { traced with Ledger.t_events = [] }) :: acc)
    end
  in
  let pairs = go 0 [] in
  let kernel_end = Work.ref_kernel () in
  let problems =
    List.concat_map
      (fun (seed, (plain : Work.sample), (tr : Ledger.traced)) ->
        let p = plain.Work.outcome and t = tr.Ledger.t_outcome in
        let check ok what = if ok then [] else [ Printf.sprintf "seed %d: %s" seed what ] in
        check p.Work.ok ("untraced: " ^ p.Work.verdict)
        @ check t.Work.ok ("traced: " ^ t.Work.verdict)
        @ check (p.Work.counts = t.Work.counts) "traced counts differ from untraced"
        @ check tr.Ledger.t_sum_ok "a phase recorded no span, the unattributed share is off, or spans were dropped")
      pairs
  in
  let failed =
    List.fold_left
      (fun acc (_, (p : Work.sample), (t : Ledger.traced)) ->
        acc + Bool.to_int (not p.Work.outcome.Work.ok)
        + Bool.to_int (not t.Ledger.t_outcome.Work.ok))
      0 pairs
  in
  let traced = List.map (fun (_, _, t) -> t) pairs in
  let plains = List.map (fun (_, p, _) -> p) pairs in
  let value name (t : Ledger.traced) =
    (List.find (fun (x : Ledger.metric) -> x.Ledger.m_name = name) t.Ledger.t_metrics)
      .Ledger.m_value
  in
  let ledger =
    List.map
      (fun (x : Ledger.metric) ->
        m x.Ledger.m_name x.Ledger.m_unit (median_of (value x.Ledger.m_name) traced))
      (List.hd traced).Ledger.t_metrics
  in
  let gc f = median_of f plains in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. plains in
  let wall (s : Work.sample) = s.Work.wall in
  let gc_metrics =
    [
      m "gc.minor_collections" "count"
        (gc (fun (s : Work.sample) -> float_of_int s.Work.minor_collections));
      m "gc.major_collections" "count"
        (gc (fun (s : Work.sample) -> float_of_int s.Work.major_collections));
      m "gc.promoted_mwords" "Mwords" (gc (fun (s : Work.sample) -> s.Work.promoted_words /. 1e6));
      m "gc.top_heap_mwords" "Mwords"
        (gc (fun (s : Work.sample) -> float_of_int s.Work.top_heap_words /. 1e6));
      m "trace.overhead_ratio" "ratio"
        (median_of (fun (t : Ledger.traced) -> t.Ledger.t_wall) traced /. median_of wall plains);
      m "cpu_over_wall" "ratio" (sum (fun (s : Work.sample) -> s.Work.cpu) /. sum wall);
      m "box.ref_kernel_s" "s" ((kernel_start +. kernel_end) /. 2.);
    ]
  in
  {
    attempted = 2 * List.length pairs;
    failed;
    problems;
    metrics = ledger @ gc_metrics;
    log =
      [
        Printf.sprintf "instance pairs: %d; untraced wall (s): %s; traced wall (s): %s"
          (List.length pairs)
          (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" (wall s)) plains))
          (String.concat " "
             (List.map (fun (t : Ledger.traced) -> Printf.sprintf "%.3f" t.Ledger.t_wall) traced));
      ];
    events = !last_events;
    kernel_end;
  }
