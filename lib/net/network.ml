(* Point-to-point network with authenticated channels and a rushing,
   static adversary, executed under a pluggable scheduler backend.

   Model (paper Sec. 1): n parties, rounds; a message sent in round r is
   delivered at the start of round r+1; honest-to-honest messages cannot
   be dropped or modified (authenticated channels). The adversary
   statically controls a corrupt set; within each round it is *rushing*:
   it observes every message the honest parties sent in the current round
   before choosing the corrupt parties' messages.

   The {!Sched.backend} chosen at {!create} decides how rounds execute:
   [Dense] visits every party's handler slot every round, [Sparse] visits
   only the active set, and [Async cfg] schedules every delivery off a
   deterministic seeded event queue with per-edge latency/jitter/loss and
   a GST knob (see sched.ml for the synchronizer argument: round
   semantics survive the chaos knobs, delivery order and the virtual
   clock do not). All three run the same round loop and share this
   module's send and delivery choke point.

   Protocols are arrays of per-party step functions closing over their own
   state; corrupt slots are [None] and their behaviour lives entirely in the
   adversary. All sends are metered through {!Metrics}; every other consumer
   (transcript tap, flight recorder, auditor) is an {!observer} fixed at
   {!create} and fed from the same choke point. *)

let src = Logs.Src.create "repro.net" ~doc:"simulated network"

module Log = (val Logs.src_log src : Logs.LOG)

(* Live state of the async executor; absent on the lock-step backends. *)
type async_state = {
  a_cfg : Sched.async_cfg;
  a_edges : Sched.edges;
  a_heap : (Wire.msg * int) Sched.Heap.t;
      (* pending deliveries with their send virtual time; entries normally
         drain within the round, but a condition's [Defer] verdict (and
         deliveries held for a dark party) persist across rounds *)
  a_stats : Sched.stats;
  mutable a_vt : int; (* virtual clock; advances to the round barrier *)
  mutable a_seq : int; (* global send counter: heap tiebreak = send order *)
}

type mark =
  | Phase of string
  | Phase_end
  | Committee of { level : int; idx : int; members : int list }
  | Decide of { party : int; payload : bytes }
  | Corrupt of int

type t = {
  n : int;
  corrupt : bool array;
  backend : Sched.backend;
  async : async_state option; (* Some iff backend is Async *)
  metrics : Metrics.t;
  observers : observer list; (* fixed at creation, notified in list order *)
  mutable staged : Wire.msg list; (* sent this round, reversed *)
  inboxes : Wire.msg list array; (* deliveries for the current round *)
  mutable dirty : int list; (* parties with a non-empty current inbox *)
  mutable round : int;
  mutable in_adv_step : bool; (* inside the adversary's turn of a round *)
  mutable condition : Sched.condition option;
      (* network-condition hook; async backend only, None = ideal network *)
}

and observer = {
  on_create : t -> unit;
  on_send : t -> bits:int -> Wire.msg -> unit;
  on_deliver : t -> bits:int -> Wire.msg -> unit;
  on_round_end : t -> scheduled:int -> unit;
  on_mark : t -> mark -> unit;
}

type handler = round:int -> inbox:Wire.msg list -> unit

type adversary = {
  adv_name : string;
  adv_step : t -> round:int -> honest_staged:Wire.msg list -> unit;
      (* called after honest parties act; rushing: sees their sends *)
}

let null_adversary = { adv_name = "null"; adv_step = (fun _ ~round:_ ~honest_staged:_ -> ()) }

(* --- observers --- *)

let silent =
  {
    on_create = (fun _ -> ());
    on_send = (fun _ ~bits:_ _ -> ());
    on_deliver = (fun _ ~bits:_ _ -> ());
    on_round_end = (fun _ ~scheduled:_ -> ());
    on_mark = (fun _ _ -> ());
  }

let tap_observer f = { silent with on_send = (fun t ~bits:_ m -> f ~round:t.round m) }

(* Receives of round r's sends are charged to round r, keeping per-round
   send/recv conservation: the auditor closes a round after delivery. *)
let audit_observer a =
  let module A = Repro_obs.Audit in
  {
    on_create =
      (fun t -> if A.n a <> t.n then invalid_arg "Network.create: auditor arity");
    on_send = (fun _ ~bits m -> A.note_send a ~src:m.Wire.src ~dst:m.Wire.dst ~bits);
    on_deliver = (fun _ ~bits m -> A.note_recv a ~src:m.Wire.src ~dst:m.Wire.dst ~bits);
    on_round_end = (fun t ~scheduled -> A.end_round a ~round:t.round ~scheduled);
    on_mark =
      (fun _ -> function
        | Phase name -> A.push_phase a name
        | Phase_end -> A.pop_phase a
        | Corrupt p -> A.mark_corrupt a p
        | Committee _ | Decide _ -> ());
  }

let recorder_observer r =
  let module R = Repro_obs.Recorder in
  let value payload =
    if Bytes.length payload = 1 then
      if Bytes.get payload 0 = '\000' then "0" else "1"
    else R.hex_of_digest (R.digest_of_payload payload)
  in
  {
    silent with
    on_send =
      (fun t ~bits m ->
        let vt = Option.map (fun a -> a.a_vt) t.async in
        R.note_send r ?vt ~round:t.round ~src:m.Wire.src ~dst:m.Wire.dst
          ~tag:m.Wire.tag ~bits ~payload:m.Wire.payload ());
    on_mark =
      (fun t -> function
        | Phase name -> R.note r (R.Phase { p_round = t.round; p_name = name })
        | Committee { level; idx; members } ->
          R.note r
            (R.Committee { c_round = t.round; c_level = level; c_idx = idx; c_members = members })
        | Decide { party; payload } ->
          R.note r (R.Decide { d_round = t.round; d_party = party; d_value = value payload })
        | Corrupt p -> R.mark_corrupt r p
        | Phase_end -> ());
  }

let observers ?audit ?recorder ?tap () =
  List.filter_map Fun.id
    [
      Option.map tap_observer tap;
      Option.map recorder_observer recorder;
      Option.map audit_observer audit;
    ]

let mark t m = List.iter (fun o -> o.on_mark t m) t.observers
let observed t = match t.observers with [] -> false | _ -> true

let phase t name f =
  match t.observers with
  | [] -> f ()
  | _ ->
    mark t (Phase name);
    Fun.protect ~finally:(fun () -> mark t Phase_end) f

let create ?(backend = Sched.Sparse) ?(observers = []) ~n ~corrupt () =
  let c = Array.make n false in
  List.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Network.create: corrupt index";
      c.(i) <- true)
    corrupt;
  let async =
    match backend with
    | Sched.Async cfg ->
      Some
        {
          a_cfg = cfg;
          a_edges = Sched.edges_create ~seed:cfg.Sched.a_seed;
          a_heap = Sched.Heap.create ();
          a_stats = Sched.stats_create ();
          a_vt = 0;
          a_seq = 0;
        }
    | Sched.Dense | Sched.Sparse -> None
  in
  let t =
    {
      n;
      corrupt = c;
      backend;
      async;
      metrics = Metrics.create n;
      observers;
      staged = [];
      inboxes = Array.make n [];
      dirty = [];
      round = 0;
      in_adv_step = false;
      condition = None;
    }
  in
  (* Observers learn the static corrupt set the way they learn later
     upgrades: one mark per corrupt party. *)
  List.iter (fun o -> o.on_create t) observers;
  if observed t then Array.iteri (fun p b -> if b then mark t (Corrupt p)) c;
  t

let n t = t.n
let metrics t = t.metrics

let virtual_time t =
  match t.async with Some a -> a.a_vt | None -> t.round

let async_stats t = Option.map (fun a -> a.a_stats) t.async

(* Conditions program the async executor's delivery heap; the lock-step
   backends have no heap to program, so attaching one there is a caller
   bug, not a silent no-op. *)
let set_condition t c =
  (match t.async with
  | None ->
    invalid_arg "Network.set_condition: conditions require the async backend"
  | Some _ -> ());
  t.condition <- Some c

(* A party is dark when the attached condition says so for the current
   (virtual time, round) — its handler is skipped and its deliveries are
   held on the heap until it resumes. Without a condition every party is
   up, on every backend. *)
let party_up t i =
  match (t.condition, t.async) with
  | Some c, Some a -> not (c.Sched.c_down ~now:a.a_vt ~round:t.round i)
  | _ -> true

(* Mid-run corruption upgrade (the adaptive adversary's move): observers
   are told, and the upgraded party's handler stops being scheduled from
   the next honest check on. *)
let mark_corrupt t p =
  if p < 0 || p >= t.n then invalid_arg "Network.mark_corrupt: party index";
  if not t.corrupt.(p) then begin
    t.corrupt.(p) <- true;
    mark t (Corrupt p)
  end

let round t = t.round
let is_corrupt t i = t.corrupt.(i)
let is_honest t i = not t.corrupt.(i)
let honest_parties t = List.filter (is_honest t) (List.init t.n (fun i -> i))
let corrupt_parties t = List.filter (is_corrupt t) (List.init t.n (fun i -> i))

(* Scheduler occupancy of the delivery-driven rounds: how many parties
   were armed, and how many inboxes were dirty before the spontaneous
   actors were merged in. Both are functions of the delivery schedule,
   hence deterministic. *)
let h_active = Repro_obs.Counters.histogram "net.active_set"
let h_dirty = Repro_obs.Counters.histogram "net.dirty_depth"

(* Observer fan-out without a closure per message. *)
let rec notify_send t bits m = function
  | [] -> ()
  | o :: rest ->
    o.on_send t ~bits m;
    notify_send t bits m rest

let rec notify_deliver t bits m = function
  | [] -> ()
  | o :: rest ->
    o.on_deliver t ~bits m;
    notify_deliver t bits m rest

let send t ~src:s ~dst ~tag payload =
  if s < 0 || s >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Network.send: party index out of range";
  (* Channels are authenticated (paper Sec. 1): the adversary speaks only
     for the corrupt set, never in an honest party's name. *)
  if t.in_adv_step && not t.corrupt.(s) then
    invalid_arg "Network.send: adversary send from honest src rejected";
  let m = { Wire.src = s; dst; tag; payload } in
  Metrics.note_send t.metrics m;
  (match t.observers with
  | [] -> ()
  | obs -> notify_send t (8 * Wire.size m) m obs);
  t.staged <- m :: t.staged

let send_many t ~src ~dsts ~tag payload =
  List.iter (fun dst -> send t ~src ~dst ~tag payload) dsts

(* Messages of the current round's staging area sourced at honest parties:
   what a rushing adversary observes. *)
let staged_honest t = List.rev (List.filter (fun m -> is_honest t m.Wire.src) t.staged)

(* Delivery costs O(messages), not O(n): the inbox array persists across
   rounds and only the slots dirtied last round are reset, so rounds where
   polylog(n) parties talk never touch the other n - polylog(n) slots.
   [msgs_rev] is the round's deliveries in *reverse* delivery order;
   consing onto each inbox restores delivery order. *)
let deliver_msgs t msgs_rev =
  List.iter (fun d -> t.inboxes.(d) <- []) t.dirty;
  t.dirty <- [];
  List.iter
    (fun (m : Wire.msg) ->
      Metrics.note_recv t.metrics m;
      (match t.observers with
      | [] -> ()
      | obs -> notify_deliver t (8 * Wire.size m) m obs);
      (match t.inboxes.(m.dst) with [] -> t.dirty <- m.dst :: t.dirty | _ -> ());
      t.inboxes.(m.dst) <- m :: t.inboxes.(m.dst))
    msgs_rev;
  t.staged <- []

(* Async delivery: every message staged this round enters the event queue
   at [vt + latency], latency drawn on its (src, dst) edge stream in send
   order; the round barrier is the maximum delivery time, so the queue
   drains completely before the next round activates (round semantics are
   preserved — see sched.ml). What the knobs change: inboxes fill in
   (delivery-time, send-seq) pop order rather than send order, and the
   virtual clock jumps to the barrier. With all knobs zero the latency is
   uniformly 1, pop order equals send order, and this path is
   byte-identical to {!deliver}. *)
let deliver_async t a =
  let barrier = ref (a.a_vt + 1) in
  List.iter
    (fun (m : Wire.msg) ->
      let lat =
        Sched.draw_latency a.a_edges a.a_cfg ~src:m.Wire.src ~dst:m.Wire.dst
          ~now:a.a_vt
      in
      (* The condition sees the drawn latency and may reroute: [Deliver]
         stays inside the round (extends the barrier like any draw),
         [Defer] parks the event past the barrier so it crosses rounds.
         No condition = [Deliver lat], the historical behaviour. *)
      let dv =
        match t.condition with
        | None ->
          if a.a_vt + lat > !barrier then barrier := a.a_vt + lat;
          a.a_vt + lat
        | Some c -> (
          match
            c.Sched.c_route ~now:a.a_vt ~round:t.round ~src:m.Wire.src
              ~dst:m.Wire.dst ~lat
          with
          | Sched.Deliver lat ->
            let dv = a.a_vt + max 1 lat in
            if dv > !barrier then barrier := dv;
            dv
          | Sched.Defer vt -> max (a.a_vt + 1) vt)
      in
      a.a_seq <- a.a_seq + 1;
      Sched.Heap.push a.a_heap ~time:dv ~seq:a.a_seq (m, a.a_vt))
    (List.rev t.staged);
  (* Drain everything due by the barrier; later events stay parked. A
     delivery whose destination is dark this round is requeued just past
     the barrier (fresh seq), so it retries every round until the party
     resumes — and because [barrier + 1 > barrier] the drain always
     terminates. The requeue re-stamps the send time to the hold point:
     holding mail for a crashed receiver models a retransmit on resume,
     so the partial-synchrony straggler accounting (which bounds the
     *network's* latency, not a crashed party's outage) measures from the
     re-offer. Delivery statistics are charged once, at the pop that
     actually delivers. *)
  (* A delivery made at the close of round r is read by its handler in
     round r + 1, so the hold test asks about the round the message would
     be *read* in — the exact complement of the handler skip, which is
     what makes churn lossless: a party dark for [r0, r1) reads nothing
     in that window and everything held for it on resume. *)
  let down dst =
    match t.condition with
    | None -> false
    | Some c -> c.Sched.c_down ~now:a.a_vt ~round:(t.round + 1) dst
  in
  let rec drain acc =
    match Sched.Heap.peek a.a_heap with
    | Some (time, _, _) when time <= !barrier -> (
      match Sched.Heap.pop a.a_heap with
      | Some (time, _, (m, send_vt)) ->
        if down m.Wire.dst then begin
          a.a_seq <- a.a_seq + 1;
          Sched.Heap.push a.a_heap ~time:(!barrier + 1) ~seq:a.a_seq
            (m, !barrier);
          drain acc
        end
        else begin
          Sched.note_delivery a.a_stats a.a_cfg ~send_vt ~deliver_vt:time;
          drain (m :: acc)
        end
      | None -> acc)
    | Some _ | None -> acc
  in
  (* [drain] accumulates by consing, so [acc] ends in reverse delivery
     order — exactly what [deliver_msgs] expects. *)
  deliver_msgs t (drain []);
  a.a_vt <- !barrier

(* Adversary turn, delivery and round close: the tail of every round. *)
let finish_round t adversary ~scheduled =
  t.in_adv_step <- true;
  Fun.protect
    ~finally:(fun () -> t.in_adv_step <- false)
    (fun () ->
      adversary.adv_step t ~round:t.round ~honest_staged:(staged_honest t));
  (* The adaptive hook observes the same honest traffic the rushing
     adversary just saw, and may upgrade its corrupt set before delivery —
     upgrades take effect from the next round's honest check. *)
  (match (t.condition, t.async) with
  | Some c, Some a ->
    c.Sched.c_observe ~now:a.a_vt ~round:t.round ~msgs:(staged_honest t)
      ~corrupt:(mark_corrupt t)
  | _ -> ());
  (* Lock-step inbox order is send order: [staged] is the sends reversed. *)
  (match t.async with Some a -> deliver_async t a | None -> deliver_msgs t t.staged);
  List.iter (fun o -> o.on_round_end t ~scheduled) t.observers;
  t.round <- t.round + 1

(* Who may act in a round. [Every] visits all n slots in party order;
   [Listed] visits a fixed ascending party list; [Driven] visits the
   parties holding a pending delivery plus the protocol's spontaneous
   actors [extra ~round], ascending. *)
type active =
  | Every of (int -> handler option)
  | Listed of (int * handler) list
  | Driven of (round:int -> int list) * (int -> handler option)

(* The one round loop. Visiting a party outside the active set would be a
   no-op, so every mode yields the same transcript at O(active) per round;
   the dense backend turns the active-set optimization off and visits
   every slot, which makes it the reference the sparse modes are checked
   against. *)
let loop t ?(adversary = null_adversary) ?(stop = fun ~round:_ -> false) ~rounds
    active =
  let active =
    match (t.backend, active) with
    | Sched.Dense, Listed parties ->
      let handlers = Array.make t.n None in
      List.iter (fun (i, h) -> handlers.(i) <- Some h) parties;
      Every (Array.get handlers)
    | Sched.Dense, Driven (_, handler_of) -> Every handler_of
    | _, a -> a
  in
  let target = t.round + rounds in
  while t.round < target && not (stop ~round:t.round) do
    Repro_obs.Trace.span ~cat:"net" "net.round" (fun () ->
        Metrics.note_round t.metrics;
        let scheduled = ref 0 in
        let act i (h : handler) =
          if is_honest t i && party_up t i then begin
            incr scheduled;
            h ~round:t.round ~inbox:t.inboxes.(i)
          end
        in
        (match active with
        | Every handler_of ->
          for i = 0 to t.n - 1 do
            match handler_of i with Some h -> act i h | None -> ()
          done
        | Listed parties -> List.iter (fun (i, h) -> act i h) parties
        | Driven (extra, handler_of) ->
          let parties =
            List.sort_uniq compare (List.rev_append t.dirty (extra ~round:t.round))
          in
          Repro_obs.Counters.observe h_dirty (List.length t.dirty);
          Repro_obs.Counters.observe h_active (List.length parties);
          List.iter
            (fun i ->
              if i < 0 || i >= t.n then invalid_arg "Network.run_active: party index";
              match handler_of i with Some h -> act i h | None -> ())
            parties);
        finish_round t adversary ~scheduled:!scheduled)
  done

let run t ?adversary ?stop ~rounds handlers =
  if Array.length handlers <> t.n then
    invalid_arg "Network.run: handler array arity";
  loop t ?adversary ?stop ~rounds (Every (Array.get handlers))

let run_parties t ?adversary ?stop ~rounds parties =
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= t.n then invalid_arg "Network.run_parties: party index")
    parties;
  loop t ?adversary ?stop ~rounds
    (Listed (List.sort (fun (a, _) (b, _) -> compare a b) parties))

let run_active t ?adversary ?stop ~rounds ~extra handler_of =
  loop t ?adversary ?stop ~rounds (Driven (extra, handler_of))

(* Drop undelivered messages and pending inboxes between protocol phases so
   a new sub-protocol starts from a clean slate while metrics accumulate. *)
let flush t =
  t.staged <- [];
  List.iter (fun d -> t.inboxes.(d) <- []) t.dirty;
  t.dirty <- []
