(* serve: `mcsim serve` under a closed loop. Set-up starts the daemon in
   a domain (one worker, fresh result store) and primes a working set
   of Run and Sample units. One client connection then sends a seeded
   stream of submits, waiting for each reply: ~90 % repeat working-set
   units, answered from the daemon's memory cache, and ~10 % are Run
   units of fresh walker seeds, computed and recorded to disk. On hits
   the protocol, JSON and server bookkeeping do nearly all the work. *)

open Bench
module P = Mcsim_serve.Protocol
module Client = Mcsim_serve.Client
module Server = Mcsim_serve.Server
module Rng = Mcsim_util.Rng

(* 10 % fresh units: four of each benchmark per block. *)
let block = 240
let fresh_per_block = 24

let run_sweep b ~seed =
  P.Run
    { bench = b; machine = `Dual; scheduler = Pipeline.default_local;
      max_instrs = serve_run_instrs; seed; engine = `Wakeup; clusters = None;
      topology = Mcsim_cluster.Interconnect.Point_to_point;
      steering = Mcsim_cluster.Steering.Static }

let sample_sweep b ~seed =
  P.Sample
    { bench = b; machine = `Dual; scheduler = Pipeline.default_local;
      max_instrs = serve_sample_instrs; seed; engine = `Wakeup;
      (* The wire format carries no policy seed: the daemon uses the
         unit's walker seed, as `mcsim sample` does. *)
      policy = { serve_policy with Sampling.seed };
      clusters = None; topology = Mcsim_cluster.Interconnect.Point_to_point;
      steering = Mcsim_cluster.Steering.Static }

(* What a served unit is compared on: its sampling record (if any) and
   its machine result. *)
let digest ~sampling ~result = md5 (Json.List [ sampling; result ])

let served_digest data =
  let m k = Option.value ~default:Json.Null (Json.member k data) in
  digest ~sampling:(m "sampling") ~result:(m "result")

(* The in-process computation a served unit must equal. *)
let in_process = function
  | P.Run { bench; seed; max_instrs; _ } ->
    let r =
      Machine.run_flat (Machine.dual_cluster ())
        (trace ~seed ~max_instrs ~scheduler:Pipeline.default_local bench)
    in
    digest ~sampling:Json.Null ~result:(Metrics.result_json r)
  | P.Sample { bench; seed; max_instrs; policy; _ } ->
    let s =
      Sampling.run_flat ~policy (Machine.dual_cluster ())
        (trace ~seed ~max_instrs ~scheduler:Pipeline.default_local bench)
    in
    digest ~sampling:(Metrics.sampling_json s) ~result:(Metrics.result_json s.Sampling.machine)
  | P.Table2 _ -> invalid_arg "in_process: table2"

(* [cls]: the latency class — "hit" for working-set repeats, the
   benchmark's name for fresh units. *)
type request = { sweep : P.sweep; label : string; cls : string; want : string list }

let working_set ~seed =
  let s = string_of_int seed in
  List.concat_map
    (fun b ->
      let n = Spec92.name b in
      [ { sweep = run_sweep b ~seed; label = n ^ "/run"; cls = "hit";
          want = [ "serve"; s; n ^ "/run" ] };
        { sweep = sample_sweep b ~seed; label = n ^ "/sample"; cls = "hit";
          want = [ "serve"; s; n ^ "/sample" ] } ])
    Spec92.all

let fresh_unit b seed =
  let l = Printf.sprintf "%s/%d" (Spec92.name b) seed in
  { sweep = run_sweep b ~seed; label = l; cls = Spec92.name b; want = [ "serve"; "fresh"; l ] }

let fresh_units () = List.concat_map (fun b -> List.map (fresh_unit b) fresh_seeds) Spec92.all

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

let socket = Filename.concat scratch_root "serve.sock"

type daemon = { dom : unit Domain.t; client : Client.t }

let start () =
  let ready = Atomic.make false in
  let cfg =
    { (Server.default ~socket_path:socket) with
      jobs = 1;
      result_cache = Some (fresh_dir "serve-results");
      on_ready = Some (fun () -> Atomic.set ready true) }
  in
  let dom = Domain.spawn (fun () -> Server.run cfg) in
  let deadline = now () +. 30.0 in
  while not (Atomic.get ready) do
    if now () > deadline then failwith "the daemon did not start listening";
    Unix.sleepf 0.001
  done;
  { dom; client = Client.connect ~socket_path:socket }

let stop d =
  Client.stop_server d.client;
  Client.close d.client;
  Domain.join d.dom

type sample = {
  lat : float;
  source : string;
  unit_label : string;  (** as the daemon names the unit *)
  data : Json.t;
  result : Json.t;
  req : request;
}

(* One submit: its latency (s), the source the unit was served from,
   the unit's label and data, and the assembled result. *)
let submit sp d req =
  let source = ref "" and label = ref "" and data = ref Json.Null in
  let on_unit ~index:_ ~total:_ ~label:l ~source:s ~data:j =
    source := s;
    label := l;
    data := j
  in
  let t0 = now () in
  let result, _ =
    Span.record sp "serve.submit" (fun () -> Client.submit ~on_unit d.client req.sweep)
  in
  let t = now () -. t0 in
  check req.label (Json.String (served_digest !data) = expect req.want);
  { lat = t; source = !source; unit_label = !label; data = !data; result; req }

let setup ~seed =
  let d = start () in
  let off = Span.create ~enabled:false () in
  List.iter
    (fun r -> ignore (attempt ("prime " ^ r.label) (fun () -> submit off d r)))
    (working_set ~seed);
  d

(* The seeded request stream, in blocks of [block] submits. Each block
   holds exactly [fresh_per_block] fresh units, as many of every
   benchmark, at seeded positions; the other submits repeat working-set
   units picked at random. A fixed mix keeps the work of a block the
   same from seed to seed. [None] once the fresh units run out. *)
let stream ~seed =
  let rng = Rng.create seed in
  let ws = Array.of_list (working_set ~seed:(walker_seed seed)) in
  let per_bench =
    Array.of_list
      (List.map
         (fun b ->
           let a = Array.of_list (List.map (fresh_unit b) fresh_seeds) in
           Rng.shuffle rng a;
           a)
         Spec92.all)
  in
  let nb = Array.length per_bench in
  let total = nb * List.length fresh_seeds in
  let taken = ref 0 in
  let slots = Array.init block (fun i -> i < fresh_per_block) in
  let pos = ref block in
  fun () ->
    if !pos = block then begin
      Rng.shuffle rng slots;
      pos := 0
    end;
    let fresh = slots.(!pos) in
    incr pos;
    if not fresh then Some (Rng.pick rng ws)
    else if !taken < total then begin
      let k = !taken in
      incr taken;
      Some per_bench.(k mod nb).(k / nb)
    end
    else None

(* [n] submits from the stream (fewer if it runs dry), inside one
   "mcbench.serve.block" span. *)
let run_block sp d next n =
  let out = ref [] and dry = ref false in
  Span.record sp "mcbench.serve.block" (fun () ->
      let rec go i =
        if i < n then
          match next () with
          | None -> dry := true
          | Some req ->
            Span.set_unit sp i;
            Option.iter (fun s -> out := s :: !out) (attempt req.label (fun () -> submit sp d req));
            go (i + 1)
      in
      go 0);
  (List.rev !out, !dry)

let retired data =
  match Option.bind (Json.member "result" data) Metrics.result_of_json with
  | Some r -> r.Machine.retired
  | None -> 0

let run_timed ~seed ~seconds =
  let wseed = walker_seed seed in
  let daemon = ref None in
  let setup_s =
    List.init setups (fun _ ->
        Option.iter stop !daemon;
        let d, t = timed (fun () -> setup ~seed:wseed) in
        daemon := Some d;
        t)
  in
  let d = Option.get !daemon in
  let off = Span.create ~enabled:false () in
  let next = stream ~seed in
  let dry = ref false in
  let rounds =
    timed_phase ~seconds ~tail_pct:serve_tail (fun _ ->
        if !dry then None
        else
          let got, exhausted = run_block off d next block in
          dry := exhausted;
          if got = [] then None
          else
            Some
              ( List.map (fun s -> (s.req.cls, s.lat)) got,
                List.length got,
                List.fold_left
                  (fun acc s -> if s.source = "computed" then acc + retired s.data else acc)
                  0 got ))
  in
  stop d;
  { setup_s; rounds; tail_pct = serve_tail }

(* Mean time of [f] over [reps] calls, in microseconds. *)
let micro reps f =
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  1e6 *. (now () -. t0) /. float_of_int reps

(* Five blocks: over 1000 hits, so their p99 has ten samples beyond. *)
let traced_block = 5 * block

let run_traced sp ~seed =
  let d = setup ~seed:(walker_seed seed) in
  let next = stream ~seed in
  Span.set_enabled sp false;
  let _, untraced = timed (fun () -> run_block sp d next traced_block) in
  Span.set_enabled sp true;
  let (got, _), traced = timed (fun () -> run_block sp d next traced_block) in
  Span.set_enabled sp false;
  let spans = Span.spans sp in
  Span.clear sp;
  stop d;
  let by src = List.filter (fun s -> s.source = src) got in
  let ms l = List.map (fun s -> 1e3 *. s.lat) l in
  let hits = ms (by "cache") and computed = by "computed" in
  let pct p l = if l = [] then nan else Stat.percentile p l in
  (* Served latency minus the same unit's in-process compute time, on
     the first computed units; it doubles as the in-process check. *)
  let overhead =
    List.filteri (fun i _ -> i < 30) computed
    |> List.filter_map (fun s ->
           attempt ("in-process " ^ s.req.label) (fun () ->
               let dg, t = timed (fun () -> in_process s.req.sweep) in
               check ("in-process " ^ s.req.label) (dg = served_digest s.data);
               1e3 *. (s.lat -. t)))
  in
  (* Codec costs on the recorded payloads: the submit requests and the
     unit data that came back. *)
  let reqs =
    List.mapi (fun i s -> P.request_to_json (P.Submit { id = i; sweep = s.req.sweep })) got
  in
  let payloads = reqs @ List.map (fun s -> s.data) got in
  let texts = List.map (Json.to_string ~minify:true) payloads in
  let n = float_of_int (List.length payloads) in
  let encode =
    micro 20 (fun () -> List.iter (fun j -> ignore (Json.to_string ~minify:true j)) payloads)
    /. n
  in
  let parse = micro 20 (fun () -> List.iter (fun t -> ignore (Json.of_string t)) texts) /. n in
  let frame = micro 20 (fun () -> List.iter (fun j -> ignore (P.frame_string j)) payloads) /. n in
  (* What one hit costs in the codec, on both ends: the request, the
     unit's progress frame and the done frame, each encoded and framed
     by one side and read back and parsed by the other (the request is
     also decoded by the daemon). The rest of the hit's latency is the
     socket, the wake-ups and the daemon's bookkeeping, which cannot be
     timed from outside Server and Client. *)
  let hit_messages =
    List.map
      (fun s ->
        let id = 1 in
        let served = { P.s_units = 1; s_cached = 1; s_computed = 0; s_coalesced = 0 } in
        ( P.request_to_json (P.Submit { id; sweep = s.req.sweep }),
          [ P.unit_response ~id ~index:0 ~total:1 ~label:s.unit_label ~source:s.source ~data:s.data;
            P.done_response ~id ~kind:(P.sweep_kind s.req.sweep) ~result:s.result ~served ] ))
      (by "cache")
  in
  let read_back frame =
    let r = P.reader () in
    P.push r frame;
    Option.get (P.pop r)
  in
  let codec_ms =
    if hit_messages = [] then nan
    else
      1e-3
      *. micro 20 (fun () ->
             List.iter
               (fun (req, resps) ->
                 ignore (P.request_of_json (read_back (P.frame_string req)));
                 List.iter (fun j -> ignore (read_back (P.frame_string j))) resps)
               hit_messages)
      /. float_of_int (List.length hit_messages)
  in
  let frac src = float_of_int (List.length (by src)) /. float_of_int (List.length got) in
  ( spans,
    [ ("serve.unaccounted_frac", Span.unaccounted_frac spans, "frac");
      ("serve.trace_overhead_frac", (traced -. untraced) /. untraced, "frac");
      ("serve.hit_p50_ms", pct 50.0 hits, "ms");
      ("serve.hit_p99_ms", pct 99.0 hits, "ms");
      ("serve.hit_samples", float_of_int (List.length hits), "count");
      ("serve.hit_codec_ms", codec_ms, "ms");
      ("serve.hit_residual_ms", pct 50.0 hits -. codec_ms, "ms");
      ("serve.computed_p50_ms", pct 50.0 (ms computed), "ms");
      ("serve.computed_p90_ms", pct 90.0 (ms computed), "ms");
      ("serve.compute_overhead_ms", (if overhead = [] then nan else Stat.median overhead), "ms");
      ("serve.cached_frac", frac "cache", "frac");
      ("serve.coalesced_frac", frac "coalesced", "frac");
      ("protocol.frame_us", frame, "us");
      ("json.encode_us", encode, "us");
      ("json.parse_us", parse, "us") ] )
