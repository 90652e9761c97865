import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfedkd.config import METRICS
from sfedkd.data import ClassDistribution, Dataset, class_distribution
from sfedkd.distill import (KDConfig, TeacherEnsemble, discrepancy, kd_targets,
                            mix_teachers, nckd_loss, tckd_loss,
                            teacher_weights, total_loss)
from sfedkd.model import (ModelParams, backprop, cross_entropy_grad, forward,
                          forward_cached, init_params)

from kd_oracle import total_loss_oracle
from kernel_oracle import kd_targets_from_logits_oracle
from selection_oracle import teacher_weights_oracle


def dist(*values):
    return ClassDistribution(np.asarray(values, dtype=np.float64))


def prob_vectors(size):
    return st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size).map(
        lambda v: np.asarray(v) / np.sum(v))


# Two distributions one ulp apart in their second entry. Unclamped, their
# JS divergence rounds to -1.08e-18.
ULP_A = np.array([0.00970873786407767, 0.00970873786407767,
                  0.009708737864077669, 0.970873786407767])
ULP_B = np.array([0.00970873786407767, 0.009708737864077669,
                  0.009708737864077669, 0.970873786407767])


# ------------------------------------------------------------ discrepancy

def test_l1_disjoint_extreme():
    assert discrepancy(dist(1, 0), dist(0, 1), "L1") == pytest.approx(2.0)


@pytest.mark.parametrize("metric", ["L1", "L2", "KL", "JS"])
def test_identity_is_zero(metric):
    d = dist(0.3, 0.2, 0.5)
    assert abs(discrepancy(d, d, metric)) <= 1e-9


def test_kl_hand_value():
    # analytic pre-smoothing value is 0.5*ln2 + 0.5*ln(2/3) = 0.143841;
    # the smoothed result must sit within 1e-3 of it
    got = discrepancy(dist(0.5, 0.5), dist(0.25, 0.75), "KL")
    assert got == pytest.approx(0.143841, abs=1e-3)


def test_kl_handles_exact_zeros():
    assert np.isfinite(discrepancy(dist(1, 0), dist(0, 1), "KL"))
    assert np.isfinite(discrepancy(dist(1, 0), dist(0, 1), "JS"))


def test_discrepancy_rejects_bad_inputs():
    with pytest.raises(ValueError):
        discrepancy(dist(1, 0), dist(1, 0, 0), "L1")
    with pytest.raises(ValueError, match="^proportions must be"):  # no empty distribution
        discrepancy(ClassDistribution(np.zeros(2)), dist(1, 0), "L1")
    with pytest.raises(ValueError):
        discrepancy(dist(1, 0), dist(1, 0), "cosine")


@settings(max_examples=60, deadline=None)
@given(prob_vectors(4), prob_vectors(4), st.sampled_from(["L1", "L2", "KL", "JS"]))
@example(ULP_A, ULP_B, "JS")
def test_discrepancy_non_negative(a, b, metric):
    assert discrepancy(ClassDistribution(a), ClassDistribution(b), metric) >= 0


def test_js_symmetric():
    a, b = dist(0.7, 0.2, 0.1), dist(0.1, 0.1, 0.8)
    assert discrepancy(a, b, "JS") == pytest.approx(discrepancy(b, a, "JS"), abs=1e-12)


# -------------------------------------------------------- teacher_weights

def test_single_teacher_forces_unit_weights():
    g, h = teacher_weights([dist(0.9, 0.1)], dist(0.2, 0.8), "L1", 1e-4)
    assert np.allclose(g, [1.0])
    assert np.allclose(h, [1.0])


def test_weights_hand_arithmetic():
    # distances d=[0.2, 0.6] arise from L1 between these pairs
    teachers = [dist(0.6, 0.4), dist(0.8, 0.2)]
    student = dist(0.5, 0.5)
    g, h = teacher_weights(teachers, student, "L1", 1e-4)
    assert g == pytest.approx([0.25, 0.75], abs=1e-5)
    assert h == pytest.approx([0.74994, 0.25006], abs=1e-5)


def test_weights_one_hot_extreme():
    g, h = teacher_weights([dist(1, 0), dist(0, 1)], dist(1, 0), "L1", 1e-4)
    assert g == pytest.approx([0.0, 1.0], abs=1e-12)
    assert h == pytest.approx([0.99995, 5.0e-5], abs=1e-5)


def test_weights_all_zero_distances_fall_back_to_uniform():
    s = dist(0.5, 0.5)
    g, h = teacher_weights([s, s, s], s, "L2", 1e-4)
    assert np.allclose(g, 1 / 3)
    assert np.allclose(h, 1 / 3)


def test_weights_reject_empty():
    with pytest.raises(ValueError):
        teacher_weights([], dist(1, 0), "L1", 1e-4)


@settings(max_examples=60, deadline=None)
@given(st.lists(prob_vectors(5), min_size=1, max_size=6), prob_vectors(5),
       st.sampled_from(["L1", "L2", "KL", "JS"]))
def test_weights_normalized_and_monotone(teacher_vecs, student_vec, metric):
    teachers = [ClassDistribution(v) for v in teacher_vecs]
    student = ClassDistribution(student_vec)
    g, h = teacher_weights(teachers, student, metric, 1e-4)
    assert abs(g.sum() - 1.0) <= 1e-9
    assert abs(h.sum() - 1.0) <= 1e-9
    d = np.array([discrepancy(t, student, metric) for t in teachers])
    for i in range(len(d)):
        for j in range(len(d)):
            if d[i] < d[j]:
                assert h[i] > h[j]
                if d.sum() > 0:
                    assert g[i] < g[j]


@pytest.mark.parametrize("metric", METRICS)
def test_weights_with_a_one_ulp_neighbour(metric):
    # a teacher one ulp from the student next to a far one: a distance
    # rounded below 0 would make that teacher's g negative and fail the
    # ensemble's weight check
    near, far = ClassDistribution(ULP_B), dist(0.7, 0.1, 0.1, 0.1)
    student = ClassDistribution(ULP_A)
    g, h = teacher_weights([near, far], student, metric, 1e-4)
    assert g[0] <= 1e-12 and g[1] == pytest.approx(1.0, abs=1e-12)
    assert (h >= 0).all() and h[0] > h[1]
    ens = TeacherEnsemble([init_params((4, 3, 4), seed=i) for i in range(2)], [near, far],
                          [0, 1]).with_weights(student, KDConfig(metric=metric))
    assert ens.g.tobytes() == g.tobytes()


@st.composite
def weight_cases(draw):
    """Teachers and students drawn with repeats from a small pool, so equal
    distances, zero distances and students equal to every teacher (g falls
    back to uniform) are common."""
    c = draw(st.integers(2, 6))
    pool = draw(st.lists(prob_vectors(c), min_size=1, max_size=4))
    pick = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6)
    return ([ClassDistribution(pool[i]) for i in draw(pick)],
            [ClassDistribution(pool[i]) for i in draw(pick)])


@settings(max_examples=150, deadline=None)
@given(weight_cases(), st.sampled_from(METRICS), st.sampled_from([1e-4, 0.5]))
@example(([ClassDistribution(ULP_B), dist(0.7, 0.1, 0.1, 0.1)], [ClassDistribution(ULP_A)]),
         "JS", 1e-4)
def test_weights_match_per_pair_oracle_bytes(case, metric, epsilon):
    teachers, students = case
    g, h = teacher_weights(teachers, students, metric, epsilon)
    g_ref, h_ref = teacher_weights_oracle(teachers, students, metric, epsilon)
    assert g.shape == g_ref.shape == h.shape == (len(students), len(teachers))
    assert g.tobytes() == g_ref.tobytes() and h.tobytes() == h_ref.tobytes()
    for m, student in enumerate(students):
        g_m, h_m = teacher_weights(teachers, student, metric, epsilon)
        assert g_m.tobytes() == g_ref[m].tobytes() and h_m.tobytes() == h_ref[m].tobytes()


# ------------------------------------------------------------ nckd / tckd

def test_nckd_zero_for_identical_logits():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((6, 5))
    t = rng.integers(0, 5, size=6)
    for tau in (1.0, 4.0):
        assert abs(nckd_loss(z, [z.copy()], t, np.array([1.0]), tau)) <= 1e-12


def test_nckd_hand_value():
    # teacher uniform over the two non-targets, student at [2/3, 1/3]
    student = np.array([[0.0, np.log(2.0), 0.0]])
    teacher = np.zeros((1, 3))
    got = nckd_loss(student, [teacher], np.array([0]), np.array([1.0]), 1.0)
    assert got == pytest.approx(0.058891, abs=1e-6)


def test_nckd_duplicate_teachers_match_single():
    rng = np.random.default_rng(1)
    zs = rng.standard_normal((4, 6))
    zt = rng.standard_normal((4, 6))
    t = rng.integers(0, 6, size=4)
    one = nckd_loss(zs, [zt], t, np.array([1.0]), 2.0)
    two = nckd_loss(zs, [zt, zt.copy()], t, np.array([0.3, 0.7]), 2.0)
    assert two == pytest.approx(one, abs=1e-12)


def test_nckd_two_classes_is_zero():
    z = np.array([[3.0, -1.0]])
    assert nckd_loss(z, [np.array([[0.0, 0.5]])], np.array([0]),
                     np.array([1.0]), 1.0) == 0.0


def test_nckd_rejects_bad_target():
    z = np.zeros((1, 3))
    with pytest.raises(ValueError):
        nckd_loss(z, [z], np.array([3]), np.array([1.0]), 1.0)


def test_tckd_zero_for_identical_logits():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((5, 4))
    t = rng.integers(0, 4, size=5)
    assert abs(tckd_loss(z, [z.copy()], t, np.array([1.0]), 4.0)) <= 1e-12


def test_tckd_hand_value():
    # binary KL of (0.5, 0.5) against (0.75, 0.25)
    student = np.array([[np.log(3.0), 0.0]])
    teacher = np.zeros((1, 2))
    got = tckd_loss(student, [teacher], np.array([0]), np.array([1.0]), 1.0)
    assert got == pytest.approx(0.143841, abs=1e-6)


def test_tckd_weight_scale_invariance():
    rng = np.random.default_rng(3)
    zs = rng.standard_normal((4, 5))
    zts = [rng.standard_normal((4, 5)) for _ in range(2)]
    t = rng.integers(0, 5, size=4)
    h = np.array([0.4, 0.6])
    scaled = 7.3 * h
    scaled /= scaled.sum()
    a = tckd_loss(zs, zts, t, h, 2.0)
    b = tckd_loss(zs, zts, t, scaled, 2.0)
    assert a == pytest.approx(b, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(3, 8), st.sampled_from([1.0, 2.0, 4.0]))
def test_kd_losses_non_negative(seed, c, tau):
    rng = np.random.default_rng(seed)
    zs = 3 * rng.standard_normal((3, c))
    zts = [3 * rng.standard_normal((3, c)) for _ in range(2)]
    t = rng.integers(0, c, size=3)
    g = rng.random(2)
    g /= g.sum()
    assert nckd_loss(zs, zts, t, g, tau) >= 0
    assert tckd_loss(zs, zts, t, g, tau) >= 0


def test_teacher_permutation_leaves_losses_unchanged():
    rng = np.random.default_rng(4)
    zs = rng.standard_normal((3, 5))
    zts = [rng.standard_normal((3, 5)) for _ in range(3)]
    t = rng.integers(0, 5, size=3)
    w = np.array([0.5, 0.3, 0.2])
    perm = [2, 0, 1]
    assert nckd_loss(zs, zts, t, w, 2.0) == pytest.approx(
        nckd_loss(zs, [zts[i] for i in perm], t, w[perm], 2.0), abs=1e-12)
    assert tckd_loss(zs, zts, t, w, 2.0) == pytest.approx(
        tckd_loss(zs, [zts[i] for i in perm], t, w[perm], 2.0), abs=1e-12)


# -------------------------------------------------- decomposition identity

def test_dkd_decomposition_identity():
    # classic softened KL over all classes = target term + p_rest * non-target
    # term, per sample, with unit weights and a single teacher
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = int(rng.choice([3, 5, 10]))
        tau = float(rng.choice([1.0, 2.0, 4.0]))
        zs = 3 * rng.standard_normal((1, c))
        zt = 3 * rng.standard_normal((1, c))
        t = np.array([int(rng.integers(0, c))])

        def log_softmax_ref(z):
            q = z / tau
            q = q - q.max()
            return q - np.log(np.exp(q).sum())

        lt, ls = log_softmax_ref(zt[0]), log_softmax_ref(zs[0])
        full_kl = float((np.exp(lt) * (lt - ls)).sum())
        one = np.array([1.0])
        nckd = nckd_loss(zs, [zt], t, one, tau) / tau**2
        tckd = tckd_loss(zs, [zt], t, one, tau) / tau**2
        p_rest = 1.0 - np.exp(lt)[t[0]]
        assert abs(full_kl - (tckd + p_rest * nckd)) < 1e-9


# -------------------------------------------------------------- ensemble

def make_ensemble(c=3, k=2, seed=0):
    teachers = [init_params((4, 6, c), seed=seed + 10 + i) for i in range(k)]
    rng = np.random.default_rng(seed)
    dists = []
    for _ in range(k):
        v = rng.random(c)
        dists.append(ClassDistribution(v / v.sum()))
    return TeacherEnsemble(teachers, dists, list(range(k)))


def test_ensemble_weight_validation():
    ens = make_ensemble()
    with pytest.raises(ValueError):
        TeacherEnsemble(ens.teachers, ens.dists, ens.client_ids,
                        g=np.array([0.5, 0.6]))


def test_with_weights_uniform_toggles():
    ens = make_ensemble(k=3)
    student = dist(0.1, 0.1, 0.8)
    cfg = KDConfig(uniform_g=True, uniform_h=True)
    w = ens.with_weights(student, cfg)
    assert np.allclose(w.g, 1 / 3)
    assert np.allclose(w.h, 1 / 3)
    cfg2 = KDConfig()
    w2 = ens.with_weights(student, cfg2)
    assert not np.allclose(w2.g, 1 / 3)


def test_kdconfig_validation():
    with pytest.raises(ValueError):
        KDConfig(tau=0.0)
    with pytest.raises(ValueError):
        KDConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        KDConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        KDConfig(metric="manhattan")


# ------------------------------------------------------------- total_loss

def ce_reference(params, X, y):
    logits, cache = forward_cached(params, X)
    loss, dlogits = cross_entropy_grad(logits, y)
    return loss, backprop(params, cache, dlogits)


def test_total_loss_reduces_to_cross_entropy():
    rng = np.random.default_rng(6)
    p = init_params((4, 6, 3), seed=6)
    X = rng.standard_normal((8, 4))
    y = rng.integers(0, 3, size=8)
    ens = make_ensemble().with_weights(dist(0.2, 0.3, 0.5), KDConfig())

    for ensemble, cfg in [
        (TeacherEnsemble.empty(), KDConfig()),
        (ens, KDConfig(gamma=0.0, beta=0.0)),
    ]:
        loss, grads = total_loss(p, X, y, ensemble, cfg)
        ref_loss, ref_grads = ce_reference(p, X, y)
        assert abs(loss - ref_loss) <= 1e-15
        for a, b in zip(grads.weights + grads.biases,
                        ref_grads.weights + ref_grads.biases):
            assert np.array_equal(a, b)


def test_total_loss_stationary_at_teacher_equality():
    # teachers identical to the student: the KD gradient contribution vanishes
    rng = np.random.default_rng(7)
    p = init_params((4, 6, 3), seed=7)
    X = rng.standard_normal((8, 4))
    y = rng.integers(0, 3, size=8)
    ens = TeacherEnsemble([p, p], [dist(0.5, 0.3, 0.2), dist(0.1, 0.2, 0.7)],
                          [0, 1]).with_weights(dist(0.3, 0.3, 0.4), KDConfig())
    _, kd_grads = total_loss(p, X, y, ens, KDConfig(gamma=1.0, beta=3.0, tau=4.0))
    _, ce_grads = ce_reference(p, X, y)
    diff = 0.0
    for a, b in zip(kd_grads.weights + kd_grads.biases,
                    ce_grads.weights + ce_grads.biases):
        diff = max(diff, np.abs(a - b).max())
    assert diff < 1e-10


def test_total_loss_requires_weights():
    p = init_params((4, 6, 3), seed=8)
    ens = make_ensemble()  # g/h unset
    with pytest.raises(ValueError):
        total_loss(p, np.zeros((2, 4)), np.array([0, 1]), ens, KDConfig())


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("tau", [1.0, 4.0])
@pytest.mark.parametrize("gamma,beta", [(1.0, 3.0), (0.0, 0.0)], ids=["kd", "no_kd"])
def test_total_loss_training_step_returns_no_loss(k, tau, gamma, beta):
    # with `out` (the training step) no loss value is computed: the call
    # returns None and writes the gradient bytes the loss path returns
    rng = np.random.default_rng(k)
    p = init_params((4, 6, 3), seed=k)
    X = 3 * rng.standard_normal((9, 4))
    y = rng.integers(0, 3, size=9)
    cfg = KDConfig(tau=tau, gamma=gamma, beta=beta)
    ens = (make_ensemble(k=k, seed=k).with_weights(dist(0.2, 0.3, 0.5), cfg) if k
           else TeacherEnsemble.empty())
    out = ModelParams.from_flat(np.zeros_like(p.flat), p.dims)
    out.flat.fill(np.nan)
    loss, grads = total_loss(p, X, y, ens, cfg, out=out)
    assert loss is None and grads is out
    assert out.flat.tobytes() == total_loss(p, X, y, ens, cfg)[1].flat.tobytes()


def test_total_loss_gradient_finite_differences():
    # small smoke version; the acceptance suite runs the full sweep
    rng = np.random.default_rng(9)
    p = init_params((4, 6, 3), seed=9)
    X = rng.standard_normal((8, 4))
    y = rng.integers(0, 3, size=8)
    cfg = KDConfig(tau=4.0, gamma=1.0, beta=3.0)
    ens = make_ensemble(seed=9).with_weights(dist(0.3, 0.5, 0.2), cfg)
    _, grads = total_loss(p, X, y, ens, cfg)
    h = 1e-5
    arr, g = p.weights[0], grads.weights[0]
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = arr[ix]
        arr[ix] = orig + h
        up = total_loss(p, X, y, ens, cfg)[0]
        arr[ix] = orig - h
        down = total_loss(p, X, y, ens, cfg)[0]
        arr[ix] = orig
        num = (up - down) / (2 * h)
        assert abs(num - g[ix]) / max(abs(num), abs(g[ix]), 1e-5) < 1e-4


# ------------------------------------------- mixture vs per-teacher oracle

def _flat(grads):
    return np.concatenate([a.ravel() for a in grads.weights + grads.biases])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 10), st.integers(1, 10),
       st.sampled_from([1.0, 4.0]), st.sampled_from([1.0, 30.0, 1e3]),
       st.sampled_from([(1.0, 0.0), (0.0, 3.0), (1.0, 3.0)]), st.booleans())
def test_total_loss_matches_per_teacher_oracle(seed, c, k, tau, scale, coeffs, clone):
    # The mixture computes each KD term as a teacher constant minus a cross
    # term, both of order log C; where they cancel (a teacher equal to the
    # student, `clone`) an exact 0 becomes rounding noise, so errors are
    # relative to max(|reference|, 1).
    rng = np.random.default_rng(seed)

    def net(s):
        p = init_params((3, 6, c), seed=s)
        return ModelParams(p.weights[:-1] + [scale * p.weights[-1]],
                           p.biases[:-1] + [scale * rng.standard_normal(c)])

    student = net(seed)
    teachers = [student if clone and i == 0 else net(seed + 1 + i) for i in range(k)]
    g, h = rng.random(k) + 1e-3, rng.random(k) + 1e-3
    ens = TeacherEnsemble(teachers, [dist(*np.full(c, 1 / c))] * k, list(range(k)),
                          g=g / g.sum(), h=h / h.sum())
    cfg = KDConfig(tau=tau, gamma=coeffs[0], beta=coeffs[1])
    n = int(rng.integers(1, 9))
    X = 2 * rng.standard_normal((n, 3))
    y = rng.integers(0, c, size=n)
    loss, grads = total_loss(student, X, y, ens, cfg)
    ref_loss, ref_grads = total_loss_oracle(student, X, y, ens, cfg)
    assert abs(loss - ref_loss) <= 1e-12 * max(abs(ref_loss), 1.0)
    a, b = _flat(grads), _flat(ref_grads)
    assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)


# ----------------------------------------------- the teacher side of a round

@pytest.mark.parametrize("k,cfg", [
    (3, KDConfig()),
    (1, KDConfig()),
    (3, KDConfig(gamma=0.0)),
    (3, KDConfig(beta=0.0, metric="L2")),
    (3, KDConfig(uniform_g=True, metric="JS")),
    (2, KDConfig(uniform_h=True, tau=1.0)),
])
def test_round_targets_slices_match_per_client_targets(k, cfg):
    # the ensemble weighted for a round's clients and one kd_targets pass over
    # their rows must give each client the bytes of its own teachers' forward
    # mixed with its own weights, whatever the other clients hold; a
    # one-client call of kd_targets must give them too
    rng = np.random.default_rng(k)
    c = 5
    ens = TeacherEnsemble([init_params((4, 6, c), seed=40 + i) for i in range(k)],
                          [ClassDistribution(v) for v in rng.dirichlet(np.ones(c), k)],
                          list(range(k)))
    clients = [Dataset(2 * rng.standard_normal((n, 4)), rng.integers(0, c, n), c)
               for n in (7, 1, 12, 64, 3)]
    dists = [class_distribution(cl) for cl in clients]
    weighted = ens.with_weights(dists, cfg)
    targets = kd_targets(weighted, [(cl.features, cl.labels) for cl in clients], cfg)
    assert len(targets) == len(clients)
    for m, (client, d) in enumerate(zip(clients, dists)):
        own = ens.with_weights(d, cfg)
        assert weighted.g[m].tobytes() == own.g.tobytes()
        assert weighted.h[m].tobytes() == own.h.tobytes()
        want = mix_teachers([forward(t, client.features) for t in ens.teachers],
                            client.labels, own.g, own.h, cfg.tau)
        (alone,) = kd_targets(own, [(client.features, client.labels)], cfg)
        assert targets[m].shape == (len(client), c + 5)
        assert targets[m].tobytes() == want.tobytes()
        assert alone.tobytes() == want.tobytes()


def test_round_targets_weight_the_ensemble_for_the_clients_given():
    # an ensemble already weighted for one distribution is weighted again,
    # one g/h row per client, and mixes as the unweighted ensemble does
    rng = np.random.default_rng(3)
    ens = make_ensemble()
    clients = [Dataset(rng.standard_normal((n, 4)), rng.integers(0, 3, n), 3) for n in (5, 2)]
    dists = [class_distribution(cl) for cl in clients]
    preset = ens.with_weights(dist(0.2, 0.3, 0.5), KDConfig())
    got_ens, want_ens = (e.with_weights(dists, KDConfig()) for e in (preset, ens))
    rows = [(cl.features, cl.labels) for cl in clients]
    got, want = (kd_targets(e, rows, KDConfig()) for e in (got_ens, want_ens))
    assert got_ens.g.shape == got_ens.h.shape == (2, 2)
    assert got_ens.g.tobytes() == want_ens.g.tobytes()
    assert got_ens.h.tobytes() == want_ens.h.tobytes()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(2, 6), st.integers(1, 4), st.sampled_from([1.0, 4.0]),
       st.sampled_from([1.0, 1e3]), st.booleans(), st.booleans(), st.integers(0, 2**16))
def test_kd_targets_from_logits_match_row_index_oracle_bytes(n, c, k, tau, scale, per_row,
                                                             fortran, seed):
    # the flat label index and the stored row sums give the bytes of the
    # [rows, labels] form, saturated logits (scale 1e3), C=2 and
    # column-major logits included
    rng = np.random.default_rng(seed)
    logits = [scale * rng.standard_normal((n, c)) for _ in range(k)]
    if fortran:
        logits = [np.asfortranarray(z) for z in logits]
    labels = rng.integers(0, c, n)
    g, h = (rng.dirichlet(np.ones(k), n if per_row else None) for _ in range(2))
    got = mix_teachers(logits, labels, g, h, tau)
    nt, nt_const, t, rest, t_const = kd_targets_from_logits_oracle(logits, labels, g, h, tau)
    assert got.shape == (n, c + 5)
    assert got[:, :c].tobytes() == nt.tobytes()
    for col, value in enumerate([nt.sum(axis=1), nt_const, t, rest, t_const]):
        assert got[:, c + col].tobytes() == value.tobytes(), col


def test_round_targets_off_without_teachers_or_coefficients():
    # kd_targets states the off rule for every caller: no teachers, gamma and
    # beta both zero, or no clients
    rows = [(np.zeros((2, 4)), np.array([0, 1]))]
    dists = [class_distribution(Dataset(*rows[0], 3))]
    empty = TeacherEnsemble.empty()
    assert kd_targets(empty.with_weights(dists, KDConfig()), rows, KDConfig()) == [None]
    off = KDConfig(gamma=0.0, beta=0.0)
    weighted = make_ensemble().with_weights(dists, off)
    assert kd_targets(weighted, rows, off) == [None] and weighted.g.shape == (1, 2)
    assert kd_targets(make_ensemble().with_weights([], KDConfig()), [], KDConfig()) == []
