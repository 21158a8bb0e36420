type t = {
  name : string;
  a_c : int;
  m_routes : int;
  max_trials : int;
  seeds : int list;
  circuits : string list;
}

let quick =
  { name = "quick";
    a_c = 25;
    m_routes = 6;
    max_trials = 2;
    seeds = [ 1; 2 ];
    circuits = Twmc_workload.Circuits.names }

let full =
  { name = "full";
    a_c = 400;
    m_routes = 20;
    max_trials = 6;
    seeds = [ 1; 2; 3; 4 ];
    circuits = Twmc_workload.Circuits.names }

let of_name = function
  | "quick" -> Some quick
  | "full" -> Some full
  | _ -> None

let params p =
  { Twmc_place.Params.default with
    Twmc_place.Params.a_c = p.a_c;
    m_routes = p.m_routes;
    route_effort = (if p.name = "full" then 12 else 4) }

let flow ~params ~seed nl =
  let rr = Twmc.Flow.run_resilient ~params ~seed nl in
  match rr.Twmc.Flow.flow with
  | Some r -> r
  | None ->
      failwith
        (Printf.sprintf "flow on %s produced no result (%s)"
           nl.Twmc_netlist.Netlist.name
           (Twmc.Flow.status_to_string rr.Twmc.Flow.status))
