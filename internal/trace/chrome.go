// Package trace is the causal tracing layer shared by both ALPS
// substrates. It turns the obs.Observer event stream — core's Figure 3
// decisions plus the substrates' phase timing hooks — into three
// artifacts:
//
//   - Chrome trace-event JSON (loadable in Perfetto or chrome://tracing)
//     with one track for control-cycle phase spans (sample → charge →
//     decide → signal → sleep) and one eligibility track per principal;
//   - an always-on flight recorder (Recorder): a lock-light bounded ring
//     of recent events that auto-dumps a window when an anomaly trigger
//     fires;
//   - an online accuracy auditor (Auditor): a sliding-window evaluator
//     of the paper's own fairness metrics, which doubles as the
//     share-error drift trigger.
//
// Everything is stdlib-only and substrate-agnostic: the simulator stamps
// events with virtual kernel time, the real-OS runner with wall-clock
// offset from start, and this package only ever reads Event.At.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"alps/internal/obs"
)

// Track layout of the generated trace. The controller process carries
// the per-quantum span and the phase spans on separate threads so they
// nest visually; each task gets its own thread in the tasks process for
// its eligibility span track.
const (
	pidController = 1
	pidTasks      = 2
	tidQuantum    = 1
	tidPhases     = 2
)

// ChromeEvent is one record of the Chrome trace-event JSON format
// (trace-viewer's "JSON Object Format"). Ph is the event type: "X" a
// complete span (TS..TS+Dur), "i" an instant, "M" process/thread
// metadata. Timestamps and durations are microseconds.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the top-level JSON object.
type chromeDoc struct {
	TraceEvents     []ChromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// micros converts a substrate timestamp to trace microseconds.
func micros(d int64) float64 { return float64(d) / 1e3 }

// Build converts a captured obs event stream (in emission order) into
// Chrome trace events. The stream may start mid-flight — a flight
// recorder window usually does — so unmatched closing edges synthesize
// their opening edge at the window start, and spans still open at the
// end of the stream are closed at the last timestamp.
func Build(events []obs.Event) []ChromeEvent {
	if len(events) == 0 {
		return nil
	}
	winStart := micros(int64(events[0].At))
	winEnd := micros(int64(events[len(events)-1].At))

	type openSpan struct {
		ts   float64
		args map[string]any
	}
	var out []ChromeEvent
	var quantum *openSpan
	phases := make(map[obs.Phase]*openSpan)
	eligible := make(map[int64]*openSpan)
	tasksSeen := make(map[int64]bool)

	// Every track Build emits carries *sequential* spans — quanta,
	// phases and per-task eligibility windows never legitimately nest on
	// their own track. Merged or skewed multi-source streams can violate
	// the event order that property relies on (a close edge delivered
	// "before" its open edge, duplicated deliveries), which would produce
	// negative durations or overlapping spans that trace viewers reject.
	// frontier tracks the end of the last span emitted per (pid, tid) and
	// clamps every new span to start at or after it, keeping the output a
	// valid trace no matter how disordered the input is.
	frontier := make(map[[2]int64]float64)
	span := func(name string, pid, tid int64, o *openSpan, end float64, cat string) {
		key := [2]int64{pid, tid}
		ts := o.ts
		if f := frontier[key]; ts < f {
			ts = f
		}
		if end < ts {
			end = ts
		}
		frontier[key] = end
		out = append(out, ChromeEvent{
			Name: name, Cat: cat, Ph: "X",
			TS: ts, Dur: end - ts, PID: pid, TID: tid, Args: o.args,
		})
	}
	instant := func(name string, pid, tid int64, ts float64, args map[string]any) {
		out = append(out, ChromeEvent{Name: name, Ph: "i", TS: ts, PID: pid, TID: tid, Args: args})
	}

	for _, e := range events {
		ts := micros(int64(e.At))
		switch e.Kind {
		case obs.KindQuantumStart:
			if quantum != nil { // truncated stream: close the stale span
				span("quantum", pidController, tidQuantum, quantum, ts, "")
			}
			quantum = &openSpan{ts: ts, args: map[string]any{"tick": e.Tick, "tasks": e.N}}
		case obs.KindQuantumEnd:
			if quantum == nil {
				quantum = &openSpan{ts: winStart, args: map[string]any{"tick": e.Tick}}
			}
			quantum.args["measured"] = e.N
			quantum.args["cycles"] = e.Cycle
			span("quantum", pidController, tidQuantum, quantum, ts, "")
			quantum = nil
		case obs.KindPhaseBegin:
			p := obs.Phase(e.N)
			if o := phases[p]; o != nil {
				span(p.String(), pidController, tidPhases, o, ts, "phase")
			}
			phases[p] = &openSpan{ts: ts, args: map[string]any{"tick": e.Tick}}
		case obs.KindPhaseEnd:
			p := obs.Phase(e.N)
			o := phases[p]
			if o == nil {
				o = &openSpan{ts: winStart, args: map[string]any{"tick": e.Tick}}
			}
			span(p.String(), pidController, tidPhases, o, ts, "phase")
			delete(phases, p)
		case obs.KindMeasure:
			tasksSeen[e.Task] = true
			instant("measure", pidTasks, e.Task, ts, map[string]any{
				"tick": e.Tick, "consumed_us": e.Consumed.Microseconds(),
				"allowance_us": e.Allowance.Microseconds(), "blocked": e.Blocked,
				"width": e.N,
			})
		case obs.KindDead:
			tasksSeen[e.Task] = true
			instant("dead", pidTasks, e.Task, ts, map[string]any{"tick": e.Tick})
			if o := eligible[e.Task]; o != nil {
				o.args["end_tick"] = e.Tick
				o.args["end_reason"] = "dead"
				span("eligible", pidTasks, e.Task, o, ts, "eligibility")
				delete(eligible, e.Task)
			}
		case obs.KindCycle:
			instant("cycle", pidController, tidQuantum, ts, map[string]any{
				"tick": e.Tick, "cycle": e.Cycle, "length_us": e.Length.Microseconds(),
			})
		case obs.KindGrant:
			tasksSeen[e.Task] = true
			instant("grant", pidTasks, e.Task, ts, map[string]any{
				"tick": e.Tick, "cycle": e.Cycle,
				"carry_us": e.Carry.Microseconds(), "allowance_us": e.Allowance.Microseconds(),
			})
		case obs.KindTransition:
			tasksSeen[e.Task] = true
			if e.Eligible {
				if o := eligible[e.Task]; o != nil { // duplicate open: close first
					span("eligible", pidTasks, e.Task, o, ts, "eligibility")
				}
				eligible[e.Task] = &openSpan{ts: ts, args: map[string]any{
					"start_tick": e.Tick, "start_reason": e.Reason.String(),
				}}
				break
			}
			o := eligible[e.Task]
			if o == nil { // window opened mid-span
				o = &openSpan{ts: winStart, args: map[string]any{}}
			}
			o.args["end_tick"] = e.Tick
			o.args["end_reason"] = e.Reason.String()
			span("eligible", pidTasks, e.Task, o, ts, "eligibility")
			delete(eligible, e.Task)
		case obs.KindPostpone:
			tasksSeen[e.Task] = true
			instant("postpone", pidTasks, e.Task, ts, map[string]any{
				"tick": e.Tick, "wake_tick": e.Wake, "allowance_us": e.Allowance.Microseconds(),
			})
		case obs.KindReconfig:
			instant("reconfig", pidController, tidQuantum, ts, map[string]any{"tick": e.Tick})
		case obs.KindDegrade:
			instant("degrade", pidController, tidQuantum, ts, map[string]any{
				"tick": e.Tick, "level": e.N, "quantum_us": e.Length.Microseconds(), "reason": e.Reason.String(),
			})
		}
	}
	// Close anything still open at the end of the window.
	if quantum != nil {
		span("quantum", pidController, tidQuantum, quantum, winEnd, "")
	}
	for p, o := range phases {
		span(p.String(), pidController, tidPhases, o, winEnd, "phase")
	}
	for id, o := range eligible {
		span("eligible", pidTasks, id, o, winEnd, "eligibility")
	}

	// Metadata names the tracks; ts 0 keeps them out of the timeline.
	meta := []ChromeEvent{
		{Name: "process_name", Ph: "M", PID: pidController, Args: map[string]any{"name": "alps controller"}},
		{Name: "thread_name", Ph: "M", PID: pidController, TID: tidQuantum, Args: map[string]any{"name": "quantum"}},
		{Name: "thread_name", Ph: "M", PID: pidController, TID: tidPhases, Args: map[string]any{"name": "phases"}},
		{Name: "process_name", Ph: "M", PID: pidTasks, Args: map[string]any{"name": "alps tasks"}},
	}
	ids := make([]int64, 0, len(tasksSeen))
	for id := range tasksSeen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		meta = append(meta, ChromeEvent{
			Name: "thread_name", Ph: "M", PID: pidTasks, TID: id,
			Args: map[string]any{"name": fmt.Sprintf("task %d", id)},
		})
	}
	return append(meta, out...)
}

// WriteChrome serializes a captured event stream as a Chrome trace-event
// JSON document. extra, if non-nil, lands in the document's otherData
// block (e.g. the dump reason and substrate).
func WriteChrome(w io.Writer, events []obs.Event, extra map[string]any) error {
	doc := chromeDoc{
		TraceEvents:     Build(events),
		DisplayTimeUnit: "ms",
		OtherData:       extra,
	}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []ChromeEvent{} // an empty trace is still a valid document
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Validate checks that data is a well-formed Chrome trace-event JSON
// document: a traceEvents array in which every event carries name, ph,
// ts, pid and tid, complete ("X") events have a non-negative dur, and
// the complete spans of each (pid, tid) track are properly nested —
// any two either disjoint or one containing the other. This is the
// invariant trace viewers rely on to build flame-graph stacks.
func Validate(data []byte) error {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return errors.New("trace: missing traceEvents array")
	}
	type span struct{ ts, end float64 }
	tracks := make(map[[2]int64][]span)
	for i, ev := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				return fmt.Errorf("trace: event %d missing %q: %v", i, k, ev)
			}
		}
		ph, _ := ev["ph"].(string)
		if ph == "" {
			return fmt.Errorf("trace: event %d has empty ph", i)
		}
		if ph != "X" {
			continue
		}
		ts, ok := ev["ts"].(float64)
		if !ok {
			return fmt.Errorf("trace: event %d ts is not a number", i)
		}
		dur, _ := ev["dur"].(float64)
		if dur < 0 {
			return fmt.Errorf("trace: event %d has negative dur %v", i, dur)
		}
		pid, _ := ev["pid"].(float64)
		tid, _ := ev["tid"].(float64)
		key := [2]int64{int64(pid), int64(tid)}
		tracks[key] = append(tracks[key], span{ts, ts + dur})
	}
	const eps = 1e-6
	for key, spans := range tracks {
		// Earlier start first; on ties the longer span is the parent.
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].ts != spans[j].ts {
				return spans[i].ts < spans[j].ts
			}
			return spans[i].end > spans[j].end
		})
		var stack []span
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.ts+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.end > stack[len(stack)-1].end+eps {
				return fmt.Errorf("trace: pid %d tid %d: span [%v,%v] overlaps [%v,%v] without nesting",
					key[0], key[1], s.ts, s.end, stack[len(stack)-1].ts, stack[len(stack)-1].end)
			}
			stack = append(stack, s)
		}
	}
	return nil
}
