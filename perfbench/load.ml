(* Open-loop load: a seeded Poisson arrival schedule, a seeded request
   stream, and the generator that sends each request when it is due and
   times it from that due time to its reply.  Users arrive independently
   of one another, so the generator never waits for a reply before
   sending the next request: a stall in the server makes the later
   requests wait, and that wait is counted in their latency. *)

let rng ~seed ~salt = Random.State.make [| seed; salt; 0x5eed |]

(* due times in seconds after the step starts: exponential gaps of mean
   1/rate *)
let arrivals ~seed ~rate ~n =
  let st = rng ~seed ~salt:rate in
  let t = ref 0.0 in
  Array.init n (fun _ ->
      let u = Random.State.float st 1.0 in
      t := !t -. (log (1.0 -. u) /. float_of_int rate);
      !t)

(* request i asks for program [fst] with input variant [snd] *)
let stream ~seed ~salt ~programs ~n =
  let st = rng ~seed ~salt:(salt + 1_000_003) in
  Array.init n (fun _ ->
      let p = Random.State.int st programs in
      (p, Random.State.bits st))

type step = {
  due : float array;  (* absolute send times *)
  latency_ms : float array;  (* due time to reply, per request *)
  ok : bool array;
  late_ms_max : float;  (* worst delay between a due time and its send *)
  outstanding : int array;  (* sent but unanswered, seen at each send *)
  wall_s : float;  (* first due time to last reply *)
}

(* [post i k] sends request [i] and arranges for [k success] to run when
   it is answered, on any domain.  [due] holds absolute clock times in
   ascending order.  Returns once every request is answered. *)
let drive ~now ~sleep_until ~post due =
  let n = Array.length due in
  let latency = Array.make n nan and ok = Array.make n false in
  let completed = Atomic.make 0 in
  let m = Mutex.create () and c = Condition.create () in
  let outstanding = Array.make n 0 in
  let late = ref 0.0 in
  let last = ref neg_infinity in
  for i = 0 to n - 1 do
    sleep_until due.(i);
    late := Float.max !late (now () -. due.(i));
    outstanding.(i) <- i - Atomic.get completed;
    post i (fun success ->
        let t = now () in
        Mutex.lock m;
        latency.(i) <- (t -. due.(i)) *. 1000.0;
        ok.(i) <- success;
        if t > !last then last := t;
        Atomic.incr completed;
        Condition.broadcast c;
        Mutex.unlock m)
  done;
  Mutex.lock m;
  while Atomic.get completed < n do
    Condition.wait c m
  done;
  let wall = if n = 0 then 0.0 else !last -. due.(0) in
  Mutex.unlock m;
  {
    due;
    latency_ms = latency;
    ok;
    late_ms_max = !late *. 1000.0;
    outstanding;
    wall_s = wall;
  }

(* Sleep until shortly before [t], then spin: a sleeping thread wakes
   up to a millisecond late on a loaded host, and that delay would be
   charged to the request as latency.  The generator has a core of its
   own, so spinning takes nothing from the server; it reads the clock
   only every 64 relax hints, because each read allocates and every
   minor collection stops the worker domain too. *)
let real_sleep_until now t =
  let d = t -. now () -. 0.001 in
  if d > 0.0 then Unix.sleepf d;
  while now () < t do
    for _ = 1 to 64 do
      Domain.cpu_relax ()
    done
  done

(* The backlog grows when the requests waiting at a send in the last
   quarter of a step are, on average, more than twice those in the first
   quarter plus a slack of eight: a server that keeps up drains back to
   a short queue after every burst, one that does not keeps falling
   further behind. *)
let backlog_grows outstanding =
  let n = Array.length outstanding in
  if n < 8 then false
  else
    let q = n / 4 in
    let avg lo =
      let s = ref 0 in
      for i = lo to lo + q - 1 do
        s := !s + outstanding.(i)
      done;
      float_of_int !s /. float_of_int q
    in
    avg (n - q) > (2.0 *. avg 0) +. 8.0

type verdict = {
  v_windows : int;
  v_tail : Stats.tail;  (* over every window's latencies together *)
  v_median_ms : float;  (* likewise *)
  v_failed : int;
  v_grows : bool;
  v_pass : bool;
}

(* requests per window of a single rate on the ladder: enough for a p99
   with ten samples beyond it *)
let window = 1000

let ok_latencies s =
  let lat = ref [] in
  Array.iteri (fun i l -> if s.ok.(i) then lat := l :: !lat) s.latency_ms;
  !lat

(* A rate is measured as one or more windows, sent at different times
   of the run, so one slow stretch of the host falls on only some of
   its samples.  Its median and tail are taken over all the windows'
   latencies together.  It meets the latency limit when nothing failed,
   that tail is within [slo_ms] and no window's backlog grows. *)
let judge ~slo_ms (windows : step list) =
  let pooled = Stats.sorted (List.concat_map ok_latencies windows) in
  let tail = Stats.tail pooled in
  let failed =
    List.fold_left
      (fun a s -> Array.fold_left (fun a ok -> if ok then a else a + 1) a s.ok)
      0 windows
  in
  let grows = List.exists (fun s -> backlog_grows s.outstanding) windows in
  {
    v_windows = List.length windows;
    v_tail = tail;
    v_median_ms = Stats.median pooled;
    v_failed = failed;
    v_grows = grows;
    v_pass = failed = 0 && (not grows) && tail.Stats.t_value <= slo_ms;
  }
