// Compiled difference-logic kernel, the extension module mpfjss._dl_core.
//
// Observable twin of mpfjss._dl_pure.DiffKernel: same algorithm, same
// tie-breaking, same exceptions.  See that module for the algorithm notes
// and the proof that the floor is safe: every node but the origin starts at
// `low` = FLOOR, and every assert is one pass that raises `low` from its
// source, trailing each node's `reason` edge with it, and rejects the assert
// when it would raise the target or the origin.  `earliest()` returns the
// raw values; the engine in mpfjss.dl reads those out of the origin's reach
// as no bound.  `changed()` reads the trail of raises back to the last push,
// one node per raise, so the search updates what it derives from `low` by
// what changed.  `Kernel` is plain C++; the functions below it check and
// convert arguments and results and raise the Python exceptions.  setup.py
// builds it.

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <new>
#include <utility>
#include <vector>

namespace {

typedef long long i64;

const i64 MAX_WEIGHT = i64(1) << 40;
const int MAX_EDGES = 1 << 21;
const i64 FLOOR = -3 * MAX_WEIGHT * MAX_EDGES;  // every new node's `low`
const int NEW_EDGE = -1;

struct Kernel {
    struct Edge {  // value(dst) - value(src) <= w
        int src, dst;
        i64 w;
    };
    struct Raise {  // a node's `low` and `reason` before an assert raised them
        int node, reason;
        i64 low;
    };
    std::vector<Edge> edges;
    std::vector<std::vector<int>> in;
    std::vector<i64> low;
    std::vector<int> reason;  // the edge that last raised each node's `low`
    std::vector<std::pair<size_t, size_t>> marks;  // (edges, lowtrail) sizes at push
    std::vector<Raise> lowtrail;
    std::vector<int> conflict;
    std::vector<i64> rstamp;  // per node, the stamp of the last conflict that found it raised
    i64 stamp = 0;
    std::vector<int> todo;  // scratch space of one assert, kept to save the allocations

    Kernel() { add_node(0); }

    int add_node(i64 bound) {
        in.emplace_back();
        low.push_back(bound);
        reason.push_back(NEW_EDGE);
        rstamp.push_back(0);
        return int(low.size()) - 1;
    }

    void push() { marks.emplace_back(edges.size(), lowtrail.size()); }

    void pop() {
        const auto [mark, lowmark] = marks.back();
        marks.pop_back();
        for (size_t eid = edges.size(); eid-- > mark;)
            in[edges[eid].dst].pop_back();
        edges.resize(mark);
        undo(lowmark);
    }

    // Restore `low` and `reason` to their values at trail size `lowmark`.
    void undo(size_t lowmark) {
        for (size_t i = lowtrail.size(); i-- > lowmark;) {
            low[lowtrail[i].node] = lowtrail[i].low;
            reason[lowtrail[i].node] = lowtrail[i].reason;
        }
        lowtrail.resize(lowmark);
    }

    // Add value(v) - value(u) <= wt; nodes and weight are already checked.
    // Returns 0, or 1 on a negative cycle.
    int assert_edge(int u, int v, i64 wt) {
        if (u == v) {
            if (wt < 0) {
                conflict.clear();
                return 1;
            }
        } else if (!raise(u, v, low[v] - wt)) {
            return 1;
        }
        in[v].push_back(int(edges.size()));
        edges.push_back({u, v, wt});
        return 0;
    }

    // Raise low[u] to `cand` and propagate; false (and rollback) on a cycle.
    bool raise(int u, int v, i64 cand) {
        const i64 lu = low[u];
        if (cand <= lu)
            return true;
        if (u == 0) {
            conflict.clear();
            chain(v, [](int) { return false; });
            return false;
        }
        const size_t start = lowtrail.size();
        lowtrail.push_back({u, reason[u], lu});
        low[u] = cand;
        reason[u] = int(edges.size());  // the new edge, once recorded
        todo.assign(1, u);
        while (!todo.empty()) {
            const int n = todo.back();
            todo.pop_back();
            const i64 ln = low[n];
            for (int eid : in[n]) {
                const int t = edges[eid].src;
                const i64 c = ln - edges[eid].w, lt = low[t];
                if (c > lt) {
                    if (t == v || t == 0) {
                        cycle(u, v, eid, start);
                        undo(start);
                        return false;
                    }
                    lowtrail.push_back({t, reason[t], lt});
                    low[t] = c;
                    reason[t] = eid;
                    todo.push_back(t);
                }
            }
        }
        return true;
    }

    // Append the reason edges from `x` up to the origin or the first node
    // where `stop` holds; returns the node reached.  From a node this assert
    // raised, the reasons lead to `u` without meeting the origin.
    template <class Stop>
    int chain(int x, Stop stop) {
        while (x != 0 && !stop(x)) {
            conflict.push_back(reason[x]);
            x = edges[reason[x]].dst;
        }
        return x;
    }

    // The negative cycle found when edge `eid` would raise `v` or the origin;
    // `start` is the trail size before this assert's raises, the first of
    // which raised `u`.  The cycle excludes the new edge u -> v.
    void cycle(int u, int v, int eid, size_t start) {
        const auto is_u = [u](int x) { return x == u; };
        conflict.clear();
        if (edges[eid].src != v) {  // the origin: v's reason chain to it comes first
            const i64 st = ++stamp;
            for (size_t i = start; i < lowtrail.size(); ++i)
                rstamp[lowtrail[i].node] = st;
            const int x = chain(v, [&](int y) { return rstamp[y] == st; });
            if (x != 0) {
                chain(x, is_u);
                return;
            }
        }
        conflict.push_back(eid);
        chain(edges[eid].dst, is_u);
    }
};

// --- Python type -----------------------------------------------------------

struct KernelObject {
    PyObject_HEAD
    Kernel k;
};

Kernel &kernel(PyObject *self) { return reinterpret_cast<KernelObject *>(self)->k; }

// `arg` as an id in [0, n), else -1: with an exception set when `arg` is no
// integer, without one when it is out of range, however large.
i64 to_id(PyObject *arg, size_t n) {
    int overflow;
    const i64 i = PyLong_AsLongLongAndOverflow(arg, &overflow);
    return overflow || i < 0 || i >= i64(n) ? -1 : i;
}

// A new list of `convert(x)` for each `x` in [first, last).
template <class It, class F>
PyObject *list_of(It first, It last, F convert) {
    PyObject *list = PyList_New(last - first);
    for (Py_ssize_t i = 0; list != nullptr && first != last; ++i, ++first) {
        PyObject *x = convert(*first);
        if (x == nullptr)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, x);
    }
    return list;
}

PyObject *kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static const char *no_keywords[] = {nullptr};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, ":DiffKernel", const_cast<char **>(no_keywords)))
        return nullptr;
    PyObject *self = type->tp_alloc(type, 0);
    if (self == nullptr)
        return nullptr;
    try {
        new (&kernel(self)) Kernel();
    } catch (const std::bad_alloc &) {
        type->tp_free(self);
        return PyErr_NoMemory();
    }
    return self;
}

void kernel_dealloc(PyObject *self) {
    kernel(self).~Kernel();
    Py_TYPE(self)->tp_free(self);
}

PyObject *add_var(PyObject *self, PyObject *) {
    try {
        return PyLong_FromLong(kernel(self).add_node(FLOOR));
    } catch (const std::bad_alloc &) {
        return PyErr_NoMemory();
    }
}

PyObject *num_vars(PyObject *self, PyObject *) {
    return PyLong_FromSize_t(kernel(self).low.size());
}

PyObject *num_edges(PyObject *self, PyObject *) {
    return PyLong_FromSize_t(kernel(self).edges.size());
}

PyObject *edge(PyObject *self, PyObject *arg) {
    const Kernel &k = kernel(self);
    const i64 eid = to_id(arg, k.edges.size());
    if (eid < 0)
        return PyErr_Occurred() ? nullptr : PyErr_Format(PyExc_IndexError, "no edge %S", arg);
    const Kernel::Edge &e = k.edges[eid];
    return Py_BuildValue("(iiL)", e.src, e.dst, e.w);
}

PyObject *level(PyObject *self, PyObject *) {
    return PyLong_FromSize_t(kernel(self).marks.size());
}

PyObject *push(PyObject *self, PyObject *) {
    try {
        kernel(self).push();
    } catch (const std::bad_alloc &) {
        return PyErr_NoMemory();
    }
    Py_RETURN_NONE;
}

PyObject *pop(PyObject *self, PyObject *) {
    Kernel &k = kernel(self);
    if (k.marks.empty()) {
        PyErr_SetString(PyExc_IndexError, "pop without matching push");
        return nullptr;
    }
    k.pop();
    Py_RETURN_NONE;
}

PyObject *earliest(PyObject *self, PyObject *arg) {
    const Kernel &k = kernel(self);
    const i64 v = to_id(arg, k.low.size());
    if (v < 0)
        return PyErr_Occurred() ? nullptr
                                : PyErr_Format(PyExc_IndexError, "unknown variable %S", arg);
    return PyLong_FromLongLong(k.low[v]);
}

PyObject *earliest_all(PyObject *self, PyObject *) {
    const Kernel &k = kernel(self);
    return list_of(k.low.begin(), k.low.end(), PyLong_FromLongLong);
}

PyObject *changed(PyObject *self, PyObject *) {
    const Kernel &k = kernel(self);
    const size_t mark = k.marks.empty() ? 0 : k.marks.back().second;
    return list_of(k.lowtrail.begin() + mark, k.lowtrail.end(),
                   [](const Kernel::Raise &r) { return PyLong_FromLong(r.node); });
}

PyObject *conflict(PyObject *self, PyObject *) {
    const Kernel &k = kernel(self);
    return list_of(k.conflict.begin(), k.conflict.end(), PyLong_FromLong);
}

PyObject *assert_edge(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError,
                            "assert_edge() takes exactly 3 arguments (%zd given)", nargs);
    Kernel &k = kernel(self);
    const i64 u = to_id(args[0], k.low.size());
    if (u < 0 && PyErr_Occurred())
        return nullptr;
    const i64 v = to_id(args[1], k.low.size());
    if (v < 0 && PyErr_Occurred())
        return nullptr;
    if (u < 0 || v < 0)
        return PyErr_Format(PyExc_IndexError, "unknown variable in edge (%S, %S)",
                            args[0], args[1]);
    int overflow;
    const i64 wt = PyLong_AsLongLongAndOverflow(args[2], &overflow);
    if (wt == -1 && PyErr_Occurred())
        return nullptr;
    if (overflow || wt < -MAX_WEIGHT || wt > MAX_WEIGHT)
        return PyErr_Format(PyExc_OverflowError, "weight %S outside +-%lld", args[2], MAX_WEIGHT);
    if (k.edges.size() >= size_t(MAX_EDGES))
        return PyErr_Format(PyExc_OverflowError, "more than %d constraints", MAX_EDGES);
    int rejected;
    try {
        rejected = k.assert_edge(int(u), int(v), wt);
    } catch (const std::bad_alloc &) {
        return PyErr_NoMemory();
    }
    return PyLong_FromLong(rejected);
}

PyMethodDef kernel_methods[] = {
    {"add_var", add_var, METH_NOARGS, "Add a node; returns its id."},
    {"num_vars", num_vars, METH_NOARGS, nullptr},
    {"num_edges", num_edges, METH_NOARGS, nullptr},
    {"edge", edge, METH_O, "The edge `eid` as (u, v, w)."},
    {"level", level, METH_NOARGS, nullptr},
    {"push", push, METH_NOARGS, nullptr},
    {"pop", pop, METH_NOARGS, nullptr},
    {"earliest", earliest, METH_O,
     "Strongest lower bound of `v`; below -MAX_WEIGHT * MAX_EDGES when free."},
    {"earliest_all", earliest_all, METH_NOARGS, nullptr},
    {"changed", changed, METH_NOARGS,
     "Nodes whose `low` rose since the last push, one entry per raise.\n\n"
     "Empty right after push; a rejected assert leaves it as it was."},
    {"conflict", conflict, METH_NOARGS,
     "Edge ids of the last rejected assert's cycle, excluding the new edge."},
    {"assert_edge", reinterpret_cast<PyCFunction>(reinterpret_cast<void (*)()>(assert_edge)),
     METH_FASTCALL,
     "Add `value(v) - value(u) <= w`.  Returns 0, or 1 on a negative cycle.\n\n"
     "On 1 the kernel is unchanged apart from the recorded conflict."},
    {nullptr, nullptr, 0, nullptr},
};

// Only the object header can be given here: C++17 has no designated
// initializers, so PyInit__dl_core sets the slots and the rest stay zero.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
PyTypeObject KernelType = {PyVarObject_HEAD_INIT(nullptr, 0)};
#pragma GCC diagnostic pop

PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "mpfjss._dl_core",
    "Compiled difference-logic kernel, the twin of mpfjss._dl_pure.", -1,
    nullptr, nullptr, nullptr, nullptr, nullptr,  // methods, slots, traverse, clear, free
};

// Add `value` to the module under `name`, taking over the reference.
int add_owned(PyObject *module, const char *name, PyObject *value) {
    const int rc = PyModule_AddObjectRef(module, name, value);
    Py_XDECREF(value);
    return rc;
}

}  // namespace

PyMODINIT_FUNC PyInit__dl_core() {
    KernelType.tp_name = "mpfjss._dl_core.DiffKernel";
    KernelType.tp_doc = "Incremental difference constraints with push/pop.";
    KernelType.tp_basicsize = sizeof(KernelObject);
    KernelType.tp_flags = Py_TPFLAGS_DEFAULT;
    KernelType.tp_new = kernel_new;
    KernelType.tp_dealloc = kernel_dealloc;
    KernelType.tp_methods = kernel_methods;
    if (PyType_Ready(&KernelType) < 0)
        return nullptr;
    PyObject *module = PyModule_Create(&module_def);
    if (module == nullptr)
        return nullptr;
    if (add_owned(module, "DiffKernel", Py_NewRef(&KernelType)) < 0
        || add_owned(module, "MAX_WEIGHT", PyLong_FromLongLong(MAX_WEIGHT)) < 0
        || add_owned(module, "MAX_EDGES", PyLong_FromLong(MAX_EDGES)) < 0) {
        Py_DECREF(module);
        return nullptr;
    }
    return module;
}
