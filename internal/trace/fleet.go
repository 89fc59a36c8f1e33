package trace

// Fleet trace merging: combine the control-plane event streams of a
// coordinator and many shards — each recorded on its own node — into one
// Perfetto-loadable Chrome trace. Each node becomes a process group: a
// "control" track of its fleet spans (plan/commit/publish/apply/ack/...)
// plus, when the node contributed its local flight-recorder window, the
// familiar controller/tasks tracks from Build under the same group.
// Publish→apply causality is rendered as Chrome flow events ("s" on the
// coordinator's publish span, "f" on the shard's apply span), so epoch
// propagation latency is visible as an arrow across tracks.
//
// Unlike Build, which works in substrate offsets, fleet sources span
// machines: FleetSpan timestamps are wall-clock time.Time values (the
// coordinator and shards stamp with their own clocks; bounded skew only
// shifts tracks, the frontier clamp in emission keeps the trace valid),
// and local obs windows are anchored onto the wall clock via
// FleetSource.Anchor.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"alps/internal/obs"
)

// FleetSpan is one control-plane event in a node's fleet trace: a named
// span (or instant, when Dur is zero) with the epoch-causal context that
// links publishes to applies across nodes. Span ids are monotone per
// (Inc, node); Parent/ParentInc name the remote span this one was caused
// by — an apply points at the publish that carried its assignment.
type FleetSpan struct {
	Name      string
	At        time.Time
	Dur       time.Duration
	Epoch     uint64
	Inc       uint64 // emitting node's incarnation
	Span      uint64
	Parent    uint64 // remote parent span (0: none)
	ParentInc uint64 // remote parent's incarnation
	Args      map[string]any
}

// FleetSource is one node's contribution to a merged fleet trace.
type FleetSource struct {
	// Name labels the node's track group (shard name, or the
	// coordinator's name).
	Name string
	// Coordinator marks the coordinator source; it sorts first and its
	// publish spans are the flow-event origins.
	Coordinator bool
	// Spans is the node's control-plane event window, oldest first.
	Spans []FleetSpan
	// Obs, if non-empty, is the node's local flight-recorder window; it
	// is rendered with Build under this node's process group, anchored
	// onto the wall clock by Anchor (wall = Anchor + Event.At).
	Obs []obs.Event
	// Anchor maps Obs substrate offsets to wall time.
	Anchor time.Time
}

// Track layout of a merged fleet trace: source i (coordinator first,
// then shards sorted by name) owns pids [base, base+2] where
// base = (i+1)*fleetPidStride — the control track, then the node's
// controller and tasks groups from Build.
const (
	fleetPidStride  = 10
	fleetTidControl = 1
)

// wallMicros converts a wall-clock instant to trace microseconds.
// float64 keeps microsecond precision through 2100s-era timestamps
// (~4e15 µs, inside float64's exact-integer range).
func wallMicros(t time.Time) float64 { return float64(t.UnixNano()) / 1e3 }

// flowKey identifies a publish span globally: span ids restart per
// incarnation, so causality is matched on the pair.
type flowKey struct {
	inc  uint64
	span uint64
}

// BuildFleet merges the sources into one Chrome trace event list:
// per-node control tracks, per-node local obs tracks, and publish→apply
// flow events. The output always satisfies Validate — spans on every
// track are clamped sequential exactly like Build's.
func BuildFleet(sources []FleetSource) []ChromeEvent {
	ordered := make([]FleetSource, len(sources))
	copy(ordered, sources)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Coordinator != ordered[j].Coordinator {
			return ordered[i].Coordinator
		}
		return ordered[i].Name < ordered[j].Name
	})

	var meta, out []ChromeEvent
	frontier := make(map[[2]int64]float64)
	// publish span → its emitted trace position (for the "s" end);
	// applies matched against it emit the "f" end.
	type flowOrigin struct {
		ts    float64
		pid   int64
		epoch uint64
	}
	publishes := make(map[flowKey]flowOrigin)
	type flowTarget struct {
		ts    float64
		pid   int64
		epoch uint64
		key   flowKey
	}
	var applies []flowTarget

	for i, src := range ordered {
		base := int64((i + 1) * fleetPidStride)
		role := "shard"
		if src.Coordinator {
			role = "coordinator"
		}
		meta = append(meta,
			ChromeEvent{Name: "process_name", Ph: "M", PID: base,
				Args: map[string]any{"name": fmt.Sprintf("%s (%s)", src.Name, role)}},
			ChromeEvent{Name: "process_sort_index", Ph: "M", PID: base,
				Args: map[string]any{"sort_index": i}},
			ChromeEvent{Name: "thread_name", Ph: "M", PID: base, TID: fleetTidControl,
				Args: map[string]any{"name": "control"}},
		)
		for _, sp := range src.Spans {
			key := [2]int64{base, fleetTidControl}
			ts := wallMicros(sp.At)
			if f := frontier[key]; ts < f {
				ts = f
			}
			end := ts + float64(sp.Dur.Nanoseconds())/1e3
			if end < ts {
				end = ts
			}
			frontier[key] = end
			args := map[string]any{"epoch": sp.Epoch, "span": sp.Span}
			if sp.Parent != 0 {
				args["parent"] = sp.Parent
			}
			for k, v := range sp.Args {
				args[k] = v
			}
			out = append(out, ChromeEvent{
				Name: sp.Name, Cat: "fleet", Ph: "X",
				TS: ts, Dur: end - ts, PID: base, TID: fleetTidControl, Args: args,
			})
			switch sp.Name {
			case "publish":
				publishes[flowKey{sp.Inc, sp.Span}] = flowOrigin{ts: ts, pid: base, epoch: sp.Epoch}
			case "apply":
				if sp.Parent != 0 {
					applies = append(applies, flowTarget{
						ts: ts, pid: base, epoch: sp.Epoch,
						key: flowKey{sp.ParentInc, sp.Parent},
					})
				}
			}
		}
		if len(src.Obs) > 0 {
			shift := wallMicros(src.Anchor)
			for _, ev := range Build(src.Obs) {
				switch ev.PID {
				case pidController:
					ev.PID = base + 1
				case pidTasks:
					ev.PID = base + 2
				default:
					ev.PID += base
				}
				if ev.Ph == "M" {
					if ev.Name == "process_name" {
						if name, _ := ev.Args["name"].(string); name != "" {
							ev.Args = map[string]any{"name": src.Name + " " + name}
						}
					}
					meta = append(meta, ev)
					continue
				}
				ev.TS += shift
				out = append(out, ev)
			}
		}
	}

	// Flow events: one id per matched publish→apply pair. Both ends use
	// the same name+cat+id, which is how trace viewers pair them; bp "e"
	// binds the arrival to the enclosing apply span.
	var flowID uint64
	for _, a := range applies {
		origin, ok := publishes[a.key]
		if !ok {
			continue
		}
		flowID++
		args := map[string]any{"epoch": a.epoch}
		out = append(out,
			ChromeEvent{Name: "epoch-propagate", Cat: "fleet", Ph: "s",
				TS: origin.ts, PID: origin.pid, TID: fleetTidControl, ID: flowID, Args: args},
			ChromeEvent{Name: "epoch-propagate", Cat: "fleet", Ph: "f", BP: "e",
				TS: a.ts, PID: a.pid, TID: fleetTidControl, ID: flowID, Args: args},
		)
	}
	return append(meta, out...)
}

// WriteFleet serializes the merged fleet trace as a Chrome trace-event
// JSON document; extra lands in otherData (e.g. the dump reason).
func WriteFleet(w io.Writer, sources []FleetSource, extra map[string]any) error {
	doc := chromeDoc{
		TraceEvents:     BuildFleet(sources),
		DisplayTimeUnit: "ms",
		OtherData:       extra,
	}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []ChromeEvent{}
	}
	return json.NewEncoder(w).Encode(doc)
}
