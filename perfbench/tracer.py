"""Per-layer tracing from outside the library.

The tracer wraps public functions of each cofrob module by rebinding them
where their callers look them up: the module attribute, every other
cofrob module that imported the name, and dispatch tables such as
`suites.DATA_SUITES`. Methods are rebound on their class. No library file
changes; `uninstall` puts every original back.

Coarse functions record a span each (name, start, end, parent, job).
Hot functions (scalar arithmetic, constructors, `apply_stage`, the window
gate) run millions of times, so they are aggregated into counts and self
time instead of spans. Both kinds take part in self-time accounting: a
call's self time is its duration minus the time covered by the wrapped
calls it made.
"""

import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

# metric stem -> (module, attribute names); a dotted name is a method
HOT = {
    "fields.mul": ("fields", ("RationalField.mul", "PrimeField.mul")),
    "fields.add": ("fields", ("RationalField.add", "RationalField.sub",
                              "PrimeField.add", "PrimeField.sub")),
    "fields.coerce": ("fields", ("RationalField.coerce", "PrimeField.coerce")),
    "fields.other": ("fields", ("RationalField.neg", "RationalField.inv",
                                "PrimeField.neg", "PrimeField.inv")),
    "core.element_new": ("core", ("Element.__init__",)),
    "core.map_new": ("core", ("GradedMap.__init__",)),
    "windows.input_valid": ("windows", ("WindowSpec.input_valid",)),
    "windows.coord_reliable": ("windows", ("WindowSpec.coordinate_reliable",)),
    "tensor.apply_stage": ("tensor", ("apply_stage",)),
}

CHECKERS = ("check_product_laws", "check_coproduct_laws", "check_unital_infinitesimal",
            "check_unital_antisymmetry", "check_counital_infinitesimal",
            "check_counital_antisymmetry", "check_biunital_infinitesimal",
            "check_copairing_symmetry", "check_pairing_symmetry", "check_cofrobenius",
            "check_derived_identities", "check_involutive")

MODEL_BUILDERS = ("sphere_cohomology", "manifold_from_cup", "submanifold_tqft",
                  "equator_pair", "diagonal_pair", "factor_pair",
                  "rabinowitz_loop_sphere", "loop_sphere", "based_loop_sphere",
                  "based_rabinowitz_loop_sphere", "circle_models", "loop_tqft_sphere")

SPANS = {
    "fields.solve": ("fields", ("solve_linear", "invert_matrix")),
    "core.compose": ("core", ("compose",)),
    "tensor.tensor_maps": ("tensor", ("tensor_maps",)),
    "tensor.permute": ("tensor", ("permute",)),
    "tensor.dual_map": ("tensor", ("dual_map",)),
    "reports.relation": ("reports", ("check_relation", "check_elements_equal")),
    "reports.render": ("reports", ("render_json", "render_text")),
    "structures.s_operator": ("structures", ("s_operator",)),
    **{f"structures.{name}": ("structures", (name,)) for name in CHECKERS},
    "duality.poincare": ("duality", ("check_poincare_duality",)),
    "duality.transform": ("duality", ("dualize", "shift_structure", "rescale_signs",
                                      "transpose_structure")),
    "duality.complete": ("duality", ("complete_from_pairing",)),
    "duality.cyclic": ("duality", ("cyclic_triple_checks",)),
    "tqft.suite": ("tqft", ("run_full_tqft_suite", "check_cardy")),
    "tqft.derive_cozipper": ("tqft", ("derive_cozipper",)),
    "models.build": ("models", MODEL_BUILDERS),
    "docio.parse": ("docio", ("parse",)),
    "docio.to_structure": ("docio", ("to_bialgebra", "to_tqft")),
    "docio.render": ("docio", ("render", "from_bialgebra", "from_tqft")),
    "suites.run_suite": ("suites", ("run_suite",)),
}

HARNESS = "harness"   # stem of the frame outside every wrapped call


class Tracer:
    """One traced pass: install, run the jobs, uninstall, read metrics."""

    def __init__(self):
        self.frames = [[0.0, -1, HARNESS]]      # [child time, span index, stem]
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.top_calls = defaultdict(int)    # calls not nested in the same stem
        self.counts = defaultdict(int)
        self.job = None
        self._undo = []

    # ---------------------------------------------------------- wrapping

    def _wrap(self, stem, fn, span):
        frames, spans = self.frames, self.spans
        self_s, calls, top_calls = self.self_s, self.calls, self.top_calls
        observe = OBSERVERS.get(fn.__name__)
        counts = self.counts
        name = fn.__qualname__

        def wrapper(*args, **kwargs):
            parent = frames[-1]
            if span:
                index = len(spans)
                spans.append(None)
            else:
                index = parent[1]
            frame = [0.0, index, stem]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                duration = end - start
                own = duration - frame[0]
                parent[0] += duration
                self_s[stem] += own
                calls[stem] += 1
                if parent[2] != stem:
                    top_calls[stem] += 1
                if span:
                    spans[index] = (name, start, end, parent[1], self.job, own)
            if observe is not None:
                observe(counts, args, result)
            return result

        return wrapper

    def _rebind(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "cofrob" and not modname.startswith("cofrob."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper, original)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._set_item(value, key, wrapper, original)

    def _set(self, owner, attr, value, original):
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _set_item(self, table, key, value, original):
        table[key] = value
        self._undo.append(lambda: table.__setitem__(key, original))

    def install(self):
        """Wrap every listed function; names a module lacks are skipped."""
        for table, span in ((HOT, False), (SPANS, True)):
            for stem, (modname, names) in table.items():
                module = sys.modules[f"cofrob.{modname}"]
                for name in names:
                    owner_name, _, attr = name.rpartition(".")
                    owner = getattr(module, owner_name, None) if owner_name else module
                    original = vars(owner).get(attr) if owner is not None else None
                    if original is None:
                        continue
                    wrapper = self._wrap(stem, original, span)
                    if owner_name:
                        self._set(owner, attr, wrapper, original)
                    else:
                        self._rebind(original, wrapper)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # ---------------------------------------------------------- results

    def harness_self_s(self, wall_s):
        """Time of the pass spent outside every wrapped call."""
        return wall_s - self.frames[0][0]

    def metrics(self, wall_s):
        s, c, n = self.self_s, self.calls, self.counts
        visited = n["inputs_visited"]
        out = {
            "fields.mul_calls": (c["fields.mul"], "count"),
            "fields.add_calls": (c["fields.add"], "count"),
            "fields.coerce_calls": (c["fields.coerce"], "count"),
            "fields.scalar_s": (s["fields.mul"] + s["fields.add"] + s["fields.coerce"]
                                + s["fields.other"], "s"),
            "fields.solve_s": (s["fields.solve"], "s"),
            "core.element_new": (c["core.element_new"], "count"),
            "core.map_new": (c["core.map_new"], "count"),
            "core.element_new_s": (s["core.element_new"], "s"),
            "core.map_new_s": (s["core.map_new"], "s"),
            "core.compose_s": (s["core.compose"], "s"),
            "tensor.apply_stage_calls": (c["tensor.apply_stage"], "count"),
            "tensor.terms_in": (n["terms_in"], "count"),
            "tensor.terms_out": (n["terms_out"], "count"),
            "tensor.apply_stage_s": (s["tensor.apply_stage"], "s"),
            "tensor.tensor_maps_s": (s["tensor.tensor_maps"], "s"),
            "tensor.permute_s": (s["tensor.permute"], "s"),
            "tensor.dual_map_s": (s["tensor.dual_map"], "s"),
            "windows.input_valid_calls": (c["windows.input_valid"], "count"),
            "windows.coord_reliable_calls": (c["windows.coord_reliable"], "count"),
            "windows.gate_s": (s["windows.input_valid"] + s["windows.coord_reliable"], "s"),
            "reports.relations": (c["reports.relation"], "count"),
            "reports.inputs_visited": (visited, "count"),
            "reports.inputs_checked": (n["inputs_checked"], "count"),
            "reports.inputs_inconclusive": (n["inputs_inconclusive"], "count"),
            "reports.masked_coords": (n["masked_coords"], "count"),
            "reports.valid_ratio": (n["inputs_checked"] / visited if visited else 0.0,
                                    "ratio"),
            "reports.relation_s": (s["reports.relation"], "s"),
            "reports.render_s": (s["reports.render"], "s"),
            "structures.s_operator_s": (s["structures.s_operator"], "s"),
        }
        for name in CHECKERS:
            out[f"structures.{name}_s"] = (s[f"structures.{name}"], "s")
        out.update({
            "duality.poincare_s": (s["duality.poincare"], "s"),
            "duality.transform_s": (s["duality.transform"], "s"),
            "duality.complete_s": (s["duality.complete"], "s"),
            "duality.cyclic_s": (s["duality.cyclic"], "s"),
            "tqft.suite_s": (s["tqft.suite"], "s"),
            "tqft.derive_cozipper_s": (s["tqft.derive_cozipper"], "s"),
            "models.build_s": (s["models.build"], "s"),
            "models.builds": (self.top_calls["models.build"], "count"),
            "docio.parse_s": (s["docio.parse"], "s"),
            "docio.to_structure_s": (s["docio.to_structure"], "s"),
            "docio.render_s": (s["docio.render"], "s"),
            "docio.bytes_in": (n["bytes_in"], "count"),
            "docio.bytes_out": (n["bytes_out"], "count"),
            "suites.run_suite_s": (s["suites.run_suite"], "s"),
            "harness.self_s": (self.harness_self_s(wall_s), "s"),
            "trace.spans": (len(self.spans), "count"),
        })
        return out

    def write_spans(self, path, origin):
        """One JSON object per span, times in seconds from `origin`."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, (name, start, end, parent, job, own) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "job": job,
                    "self_s": own}) + "\n")


def _observe_apply_stage(counts, args, result):
    counts["terms_in"] += len(args[1].coeffs)
    counts["terms_out"] += len(result.coeffs)


def _observe_relation(counts, args, report):
    counts["inputs_visited"] += report.checked + report.inconclusive
    counts["inputs_checked"] += report.checked
    counts["inputs_inconclusive"] += report.inconclusive
    counts["masked_coords"] += report.masked_coords


def _observe_parse(counts, args, result):
    counts["bytes_in"] += len(args[0].encode("utf-8"))


def _observe_render(counts, args, result):
    counts["bytes_out"] += len(result.encode("utf-8"))


OBSERVERS = {
    "apply_stage": _observe_apply_stage,
    "check_relation": _observe_relation,
    "check_elements_equal": _observe_relation,
    "parse": _observe_parse,
    "render": _observe_render,
}
