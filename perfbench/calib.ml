(* A reference for the host clock, sampled while a repetition runs.

   The machine the benchmark runs on is shared: its speed drifts by up to
   2x over minutes and jumps within seconds, and a repetition's CPU time
   drifts with it. So while a repetition runs, an interval timer
   interrupts it every [period] seconds to run a short fixed kernel that
   touches no repository code, and host times are reported in reference
   seconds (Perfstats.calibrated): the repetition's wall time scaled by
   the kernel's nominal time over its mean measured time during that
   repetition. A change to the program moves them in full, while a change
   in the machine's speed moves the program and the kernel alike. The
   kernel's own time, about 4% of the run, stays inside the wall time.

   The kernel is a small discrete-event loop shaped like the simulator it
   stands beside: a binary heap of timed events, a hash table of per-key
   state, and short-lived allocations on every event. Its state (about
   4 MB) persists from one sample to the next, so that each sample, like
   the simulator, finds its data pushed out of the caches by the work in
   between. A kernel that started from fresh state every sample tracked
   the machine less well: over the same twelve runs of outage-recovery,
   the quartile spread of run_s was 0.099 with it and 0.049 with a
   persistent-state trial version of this kernel. *)

type ev = { at : float; key : int; hops : int }

let size = 16384
let events = 1000
let period = 0.05

(* The time of one sample on a quiet 2.1 GHz x86-64 core, so reference
   seconds read close to wall seconds there. *)
let nominal_s = 0.0015

(* [make ()] builds the kernel's state and returns the function that
   runs [n] more events on it. Keys and per-key histories are bounded,
   so the state stops growing once warm. *)
let make () =
  let heap = Array.make size { at = 0.; key = 0; hops = 0 } and n = ref 0 in
  let push e =
    let i = ref !n in
    incr n;
    while !i > 0 && heap.((!i - 1) / 2).at > e.at do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr n;
    let last = heap.(!n) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= !n then fin := true
      else begin
        let c = if l + 1 < !n && heap.(l + 1).at < heap.(l).at then l + 1 else l in
        if heap.(c).at < last.at then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else fin := true
      end
    done;
    heap.(!i) <- last;
    top
  in
  let state = Hashtbl.create size in
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  for key = 0 to size - 1 do
    push { at = float_of_int (next () land 1023); key; hops = 0 }
  done;
  let run n =
    for _ = 1 to n do
      let e = pop () in
      let hist = Option.value ~default:[] (Hashtbl.find_opt state e.key) in
      Hashtbl.replace state e.key (if List.length hist >= 8 then [ e.hops ] else e.hops :: hist);
      push
        { at = e.at +. float_of_int (1 + (next () land 255));
          key = (e.key + next ()) land (size - 1);
          hops = e.hops + 1 }
    done
  in
  (* warm: every key holds a history before the first sample *)
  run (16 * size);
  run

let kernel = lazy (make ())

let total = ref 0. and count = ref 0

let sample () =
  let t = Unix.gettimeofday () in
  Lazy.force kernel events;
  total := !total +. (Unix.gettimeofday () -. t);
  incr count

let set_timer p =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = p; it_value = p })

(* [sampled f] runs [f ()] with the kernel sampled every [period]
   seconds, and returns its result with the kernel's mean time during it
   (sampled once more at the end if [f] was too short for the timer). *)
let sampled f =
  (* build the kernel's state before the first sample is timed *)
  let (_ : int -> unit) = Lazy.force kernel in
  total := 0.;
  count := 0;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  set_timer period;
  (* the handler stays installed: a signal already pending when the
     timer stops must not meet the default action, which ends the process *)
  let result = Fun.protect ~finally:(fun () -> set_timer 0.) f in
  if !count = 0 then sample ();
  (result, !total /. float_of_int !count)
