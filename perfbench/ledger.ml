(* The traced pass: one instance with the spans the program already records
   switched on (GC capture too, as in [Runner.run_profiled]), the SRDS
   scheme wrapped in {!Timed_srds}, the counter registry on, and a tap that
   charges every send to its Fig. 3 phase. The result is a per-layer
   ledger: a list of named metrics with units. *)

module Trace = Repro_obs.Trace
module Counters = Repro_obs.Counters
module Wire = Repro_net.Wire

(* Fig. 3 phases: the top-level "ba" span names and the ledger names. The
   upper aggregation levels ("F: level 2", ...) fold into one entry. *)
let phases =
  [
    ("A: keygen", "A_keygen");
    ("B: election", "B_election");
    ("C1: supreme BA", "C1_supreme_ba");
    ("C2: coin toss", "C2_coin");
    ("D: disseminate pair", "D_disseminate");
    ("E: sign+send", "E_sign");
    ("F: level 1", "F1_leaf");
    ("F: level *", "F_upper");
    ("G: disseminate cert", "G_disseminate");
    ("H: boost round", "H_boost");
  ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let phase_of_span name =
  match List.assoc_opt name phases with
  | Some p -> Some p
  | None -> if starts_with ~prefix:"F: level " name then Some "F_upper" else None

(* The phase a message belongs to, from the tag its sender gave it. The
   instance label of the BA pipeline is "ba". A tag no rule knows is
   charged to "unattributed", which should read 0. *)
let phase_of_tag tag =
  let rules =
    [
      ("elect/", "B_election");
      ("supreme-ba/", "C1_supreme_ba");
      ("coin-ba/", "C2_coin");
      ("aecomm/pair-ba", "D_disseminate");
      ("sig-ba", "E_sign");
      ("aggr-ba-1/", "F1_leaf");
      ("aggr-ba-", "F_upper");
      ("up-ba", "F_upper");
      ("aecomm/cert-ba", "G_disseminate");
      ("boost-ba", "H_boost");
    ]
  in
  match List.find_opt (fun (prefix, _) -> starts_with ~prefix tag) rules with
  | Some (_, p) -> p
  | None -> "unattributed"

(* Phase A (setup) sends nothing. *)
let traffic_phases =
  List.filter (fun p -> p <> "A_keygen") (List.map snd phases) @ [ "unattributed" ]

type metric = { m_name : string; m_unit : string; m_value : float }

let metric m_name m_unit m_value = { m_name; m_unit; m_value }

(* Self time of every span: its duration minus the part its children
   cover. Spans of one domain nest properly, so in start order (parents
   before children at equal start) a span's parent is the latest open span
   one level up its path. *)
let self_times (evs : Trace.event list) =
  let arr =
    Array.of_list
      (List.stable_sort
         (fun (a : Trace.event) (b : Trace.event) ->
           compare
             (a.Trace.e_tid, a.Trace.e_ts, List.length a.Trace.e_path)
             (b.Trace.e_tid, b.Trace.e_ts, List.length b.Trace.e_path))
         evs)
  in
  let child = Array.make (Array.length arr) 0. in
  let open_at = Hashtbl.create 16 in
  Array.iteri
    (fun i (e : Trace.event) ->
      let depth = List.length e.Trace.e_path in
      (match Hashtbl.find_opt open_at (e.Trace.e_tid, depth - 1) with
      | Some p when depth > 1 -> child.(p) <- child.(p) +. e.Trace.e_dur
      | _ -> ());
      Hashtbl.replace open_at (e.Trace.e_tid, depth) i)
    arr;
  Array.to_list (Array.mapi (fun i e -> (e, e.Trace.e_dur -. child.(i))) arr)

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* p99 of a power-of-two bucketed histogram: the lower edge of the bucket
   holding the 99th percentile. *)
let hist_p99 (count, _sum, buckets) =
  if count = 0 then 0.
  else begin
    let target = (99 * count + 99) / 100 in
    let rec go i seen =
      let seen = seen + buckets.(i) in
      if seen >= target || i = Array.length buckets - 1 then
        float_of_int (1 lsl i)
      else go (i + 1) seen
    in
    go 0 0
  end

type traced = {
  t_wall : float;  (** s, traced instance *)
  t_outcome : Work.outcome;
  t_metrics : metric list;
  t_sum_ok : bool;
      (** every phase recorded a span, the unattributed remainder is within
          {!unattributed_ceiling} of the wall, and no span was dropped *)
  t_events : Trace.event list;
}

(* The largest share of the traced wall the phase spans may leave
   unattributed: the roadmap's target for the ledger. *)
let unattributed_ceiling = 0.10

let srds_ops = [ "keygen"; "sign"; "aggregate1"; "aggregate2"; "verify"; "verify_partial" ]

let traced_instance (w : Work.workload) ~seed =
  Work.fresh ();
  Trace.reset ();
  Counters.reset ();
  Timed_srds.reset ();
  let traffic = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace traffic p (0, 0)) traffic_phases;
  let tap ~round:_ (m : Wire.msg) =
    let p = phase_of_tag m.Wire.tag in
    let c, b = Hashtbl.find traffic p in
    Hashtbl.replace traffic p (c + 1, b + Wire.size m)
  in
  Counters.enable ();
  Trace.set_gc_capture true;
  Trace.set_enabled true;
  let t0 = Unix.gettimeofday () in
  let o = Work.run_instance ~tap ~timed:true w ~seed in
  let wall = Unix.gettimeofday () -. t0 in
  Trace.set_enabled false;
  Trace.set_gc_capture false;
  Counters.disable ();
  let evs = Trace.events () in
  let selfs = self_times evs in
  let us x = x /. 1e6 in
  let sum_dur pred =
    List.fold_left
      (fun acc (e : Trace.event) -> if pred e then acc +. e.Trace.e_dur else acc)
      0. evs
  in
  let count pred = List.length (List.filter pred evs) in
  let sum_self name =
    List.fold_left
      (fun acc ((e : Trace.event), s) -> if e.Trace.e_name = name then acc +. s else acc)
      0. selfs
  in
  let named n (e : Trace.event) = e.Trace.e_name = n in
  let top_ba (e : Trace.event) = List.length e.Trace.e_path = 1 && e.Trace.e_cat = "ba" in
  let phase_s p =
    sum_dur (fun e ->
        top_ba e && phase_of_span e.Trace.e_name = Some p)
  in
  let all_phases = us (sum_dur top_ba) in
  let unattributed = wall -. all_phases in
  let phase_metrics =
    List.map (fun (_, p) -> metric ("phase." ^ p ^ "_s") "s" (us (phase_s p))) phases
    @ [
        metric "phase.unattributed_s" "s" unattributed;
        metric "phase.unattributed_share" "ratio" (unattributed /. wall);
      ]
  in
  let srds_metrics =
    List.concat_map
      (fun op ->
        let n = "srds." ^ op in
        [
          metric (n ^ "_s") "s" (us (sum_dur (named n)));
          metric (n ^ "_calls") "count" (float_of_int (count (named n)));
        ])
      srds_ops
    @ [
        metric "srds.aggregate1_kept_ratio" "ratio"
          (if !Timed_srds.offered = 0 then 0.
           else float_of_int !Timed_srds.kept /. float_of_int !Timed_srds.offered);
      ]
  in
  let snap = Counters.snapshot () in
  let c name = Option.value (List.assoc_opt name snap) ~default:0 in
  let cf name = float_of_int (c name) in
  let hists = Counters.histogram_snapshot () in
  let hist name = Option.value (List.assoc_opt name hists) ~default:(0, 0, [| 0 |]) in
  let active_n, active_sum, _ = hist "net.active_set" in
  let adv =
    List.fold_left
      (fun acc (name, v) -> if starts_with ~prefix:"adv.msgs." name then acc + v else acc)
      0 snap
  in
  let net_msgs, net_bytes =
    Hashtbl.fold (fun _ (m, b) (am, ab) -> (am + m, ab + b)) traffic (0, 0)
  in
  let st f = float_of_int (f o.Work.sched) in
  let layer_metrics =
    [
      metric "crypto.sha256_compress" "count" (cf "sha256.compress");
      metric "crypto.hashx_calls" "count" (cf "hashx.hash");
      metric "crypto.hashx_hit_ratio" "ratio" (ratio (c "hashx.cache_hit") (c "hashx.cache_miss"));
      metric "crypto.wots_verify_calls" "count" (cf "wots.verify");
      metric "crypto.wots_hit_ratio" "ratio" (ratio (c "wots.cache_hit") (c "wots.cache_miss"));
      metric "snark.prove_calls" "count" (cf "snark.prove");
      metric "snark.verify_calls" "count" (cf "snark.verify");
      metric "engine.dispatch_s" "s" (us (sum_self "engine.dispatch"));
      metric "engine.dispatch_calls" "count" (float_of_int (count (named "engine.dispatch")));
      metric "engine.msgs" "count" (cf "engine.msgs");
      metric "engine.inbox_depth_p99" "msgs" (hist_p99 (hist "engine.inbox_depth"));
      metric "net.round_self_s" "s" (us (sum_self "net.round"));
      metric "net.msgs" "count" (float_of_int net_msgs);
      metric "net.bytes" "bytes" (float_of_int net_bytes);
      metric "net.active_set_mean" "parties"
        (if active_n = 0 then 0. else float_of_int active_sum /. float_of_int active_n);
      metric "sched.sends" "count" (st (fun s -> s.Work.sends));
      metric "sched.max_latency" "vt" (st (fun s -> s.Work.max_latency));
      metric "sched.pre_gst_lost" "count" (st (fun s -> s.Work.pre_gst_lost));
      metric "sched.post_gst_late" "count" (st (fun s -> s.Work.post_gst_late));
      metric "adv.msgs" "count" (float_of_int adv);
      metric "aecomm.disseminate_s" "s"
        (us (sum_dur (fun e -> List.length e.Trace.e_path >= 1 && e.Trace.e_cat = "aecomm")));
      metric "aecomm.enc_hit_ratio" "ratio" (ratio (c "aecomm.enc_hit") (c "aecomm.enc_miss"));
      metric "encode.memo_hit_ratio" "ratio" (ratio (c "encode.memo_hit") (c "encode.memo_miss"));
    ]
  in
  let traffic_metrics =
    List.concat_map
      (fun p ->
        let m, b = Hashtbl.find traffic p in
        [
          metric ("traffic." ^ p ^ "_msgs") "count" (float_of_int m);
          metric ("traffic." ^ p ^ "_bytes") "bytes" (float_of_int b);
        ])
      traffic_phases
  in
  {
    t_wall = wall;
    t_outcome = o;
    t_metrics =
      (metric "trace.instance_s" "s" wall :: phase_metrics)
      @ srds_metrics @ layer_metrics @ traffic_metrics;
    t_sum_ok =
      List.for_all
        (fun (_, p) ->
          List.exists (fun e -> top_ba e && phase_of_span e.Trace.e_name = Some p) evs)
        phases
      && unattributed >= 0.
      && unattributed <= unattributed_ceiling *. wall
      && Trace.dropped () = 0;
    t_events = evs;
  }

(* The ledger as a table: phases first, each with its share of the traced
   wall, then every other layer metric. *)
let render ~workload (ms : metric list) =
  let buf = Buffer.create 4096 in
  let wall =
    match List.find_opt (fun m -> m.m_name = "trace.instance_s") ms with
    | Some m -> m.m_value
    | None -> nan
  in
  Buffer.add_string buf (Printf.sprintf "per-layer ledger: %s (medians over traced instances)\n" workload);
  List.iter
    (fun m ->
      let share =
        if m.m_unit = "s" && starts_with ~prefix:"phase." m.m_name then
          Printf.sprintf "  %5.1f%%" (100. *. m.m_value /. wall)
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-34s %16.6g %-8s%s\n" m.m_name m.m_value m.m_unit share))
    ms;
  Buffer.contents buf
