"""The regularized lower incomplete gamma function P(a, x), in pure Python.

This is the Gamma CDF that demand.discretized_gamma bins into a pmf. It is
a port of the Cephes igam routine as scipy.special.gammainc ships it
(scipy 1.17), operation for operation:

- the power series for P (DLMF 8.11.4), and 1 - Q for x > 1, x > a, with
  Q from the continued fraction (DLMF 8.9.2) or, for x <= 1.1, the series
  near x = 0 (DLMF 8.7.3);
- Temme's uniform asymptotic expansion (DLMF 8.12.3/8.12.4) where x is
  near a and a > 20, with the d_{k,n} coefficients of DiDonato & Morris
  (1986, ACM TOMS 12) and Temme (1979) in _IGAM_D, cut to the 12 x 18
  block of scipy's 25 x 25 that its loops can read (a bound test shows
  they break before any later entry);
- the prefactor x^a e^-x / Gamma(a) through Boost's lanczos13m53 sum,
  and Cephes' own lgam, lgam1p (a Taylor series in Hurwitz zeta values),
  expm1, log1pmx and erfc.

Python floats are IEEE doubles and the math module calls the same libm
exp, log, pow and sqrt, so the same operations in the same order give
scipy's bits; tests/test_incgamma.py checks that against scipy bit for
bit, and the port is kept only while it holds. Branches that no argument
of gammainc reaches are left out, each named where it would be: igamc's
dispatch for x <= 1 or x < a, lgam's reflection for x < 0, zeta(x, q)
for q != 1, and the outer ranges of lgam1p, expm1, log1pmx and erfc.
"""

import math

MACHEP = 1.11022302462515654042e-16
MAXLOG = 7.09782712893383996843e2
_MAXITER = 2000
_SMALL, _LARGE = 20.0, 200.0
_SMALLRATIO, _LARGERATIO = 0.3, 4.5
_BIG = 4.503599627370496e15
_BIGINV = 2.22044604925031308085e-16
_EULER = 0.577215664901532860606512090082402431
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305

_LANCZOS_G = 6.024680040776729583740234375
# Boost's lanczos13m53 lanczos_sum_expg_scaled, highest power first
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222, 0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208, 449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526, 75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507, 3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571, 43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342, 103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DENOM = (
    1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0, 45995730.0, 105258076.0,
    150917976.0, 120543840.0, 39916800.0, 0.0,
)

# lgam: log Gamma on [2, 3) and Stirling's series
_GAMMA_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
_GAMMA_B = (
    -1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
    -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5,
)
_GAMMA_C = (
    -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
    -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6,
)
# Euler-Maclaurin coefficients (2k)!/B_2k of the Hurwitz zeta function
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9, 7.47242496e10,
    -2.950130727918164224e12, 1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)
# expm1 on [-0.5, 0.5]
_EP = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2, 9.9999999999999999991025e-1)
_EQ = (
    3.0019850513866445504159e-6, 2.5244834034968410419224e-3, 2.2726554820815502876593e-1,
    2.0000000000000000000897e0,
)
# erfc for 1 <= |x| < 8 (P/Q) and erf for |x| <= 1 (T/U)
_NDTR_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_NDTR_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_NDTR_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_NDTR_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)


def gammainc(a: float, x: float) -> float:
    """P(a, x) = gamma(a, x) / Gamma(a), bit for bit as scipy.special.gammainc."""
    # scipy answers nan for a nan argument before Cephes' prologue
    if math.isnan(a) or math.isnan(x) or x < 0 or a < 0:
        return math.nan
    if a == 0:
        return 1.0 if x > 0 else math.nan
    if x == 0:
        return 0.0
    if math.isinf(a):
        return math.nan if math.isinf(x) else 0.0
    if math.isinf(x):
        return 1.0
    absxma_a = abs(x - a) / a
    if (_SMALL < a < _LARGE and absxma_a < _SMALLRATIO) or (
        a > _LARGE and absxma_a < _LARGERATIO / math.sqrt(a)
    ):
        return _asymptotic_series(a, x)
    if x > 1.0 and x > a:
        # 1 - igamc(a, x): igamc's prologue and asymptotic test pass here as
        # above, and for x > 1, x > a its dispatch reduces to these two
        if x > 1.1:
            return 1.0 - _igamc_continued_fraction(a, x)
        return 1.0 - _igamc_series(a, x)
    return _igam_series(a, x)


def _igam_fac(a, x):
    """x^a e^-x / Gamma(a)."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - _lgam(a)
        if ax < -MAXLOG:
            return 0.0
        return math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.exp(1)) / _ratevl(a, _LANCZOS_NUM, _LANCZOS_DENOM)
    if a < 200 and x < 200:
        res *= math.exp(a - x) * math.pow(x / fac, a)
    else:
        num = x - a - _LANCZOS_G + 0.5
        res *= math.exp(a * _log1pmx(num / fac) + x * (0.5 - _LANCZOS_G) / fac)
    return res


def _igamc_continued_fraction(a, x):
    """Q(a, x) by DLMF 8.9.2."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x
    pkm1 = x + 1.0
    qkm1 = z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2 = pkm1
        pkm1 = pk
        qkm2 = qkm1
        qkm1 = qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= MACHEP:
            break
    return ans * ax


def _igam_series(a, x):
    """P(a, x) by DLMF 8.11.4."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= MACHEP * ans:
            break
    return ans * ax / a


def _igamc_series(a, x):
    """Q(a, x) by DLMF 8.7.3, for small x."""
    fac = 1.0
    total = 0.0
    for n in range(1, _MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= MACHEP * abs(total):
            break
    logx = math.log(x)
    term = -_expm1(a * logx - _lgam1p(a))
    return term - math.exp(a * logx - _lgam(a)) * total


def _asymptotic_series(a, x):
    """P(a, x) by DLMF 8.12.3.

    Cephes' sign sgn = -1 for P is written out: it only flips signs, which
    is exact.
    """
    lam = x / a
    sigma = (x - a) / a
    if lam > 1:
        eta = math.sqrt(-2 * _log1pmx(sigma))
    elif lam < 1:
        eta = -math.sqrt(-2 * _log1pmx(sigma))
    else:
        eta = 0.0
    res = 0.5 * _erfc(-eta * math.sqrt(a / 2))

    etapow = [1.0] + [0.0] * (len(_IGAM_D[0]) - 1)
    maxpow = 0
    total = 0.0
    afac = 1.0
    absoldterm = math.inf
    for d in _IGAM_D:
        ck = d[0]
        for n in range(1, len(d)):
            if n > maxpow:
                etapow[n] = eta * etapow[n - 1]
                maxpow += 1
            ckterm = d[n] * etapow[n]
            ck += ckterm
            if abs(ckterm) < MACHEP * abs(ck):
                break
        term = ck * afac
        absterm = abs(term)
        if absterm > absoldterm:
            break
        total += term
        if absterm < MACHEP * abs(total):
            break
        absoldterm = absterm
        afac /= a
    res -= math.exp(-0.5 * a * eta * eta) * total / math.sqrt(2 * math.pi * a)
    return res


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """_polevl with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ratevl(x, num, denom):
    """num(x) / denom(x) of equal degrees, evaluated in 1/x where |x| > 1.

    Cephes multiplies the quotient by x^(degree difference), here 1.0.
    """
    if abs(x) > 1:
        y = 1 / x
        return _polevl(y, num[::-1]) / _polevl(y, denom[::-1])
    return _polevl(x, num) / _polevl(x, denom)


def _lgam(x):
    """log Gamma(x) for finite x > 0 (Cephes reflects x < -34 and stops at poles)."""
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * _polevl(x, _GAMMA_B) / _p1evl(x, _GAMMA_C)
        return math.log(z) + p
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _GAMMA_A) / x
    return q


def _lgam1p(x):
    """log Gamma(1 + x) for 0 < x < 1.5 (Cephes' lgam(x + 1) branch above)."""
    if abs(x) <= 0.5:
        return _lgam1p_taylor(x)
    return math.log(x) + _lgam1p_taylor(x - 1)


def _lgam1p_taylor(x):
    if x == 0:
        return 0.0
    res = -_EULER * x
    xfac = -x
    for n in range(2, 42):
        xfac *= -x
        coeff = _zeta(n) * xfac / n
        res += coeff
        if abs(coeff) < MACHEP * abs(res):
            break
    return res


def _zeta(x):
    """Hurwitz zeta(x, q) at q = 1, for x > 1, by Euler-Maclaurin summation.

    Cephes' q^-x and a = q start as 1.0 here.
    """
    s = 1.0
    a = 1.0
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for zeta_a in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / zeta_a
        s = s + t
        t = abs(t / s)
        if t < MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _expm1(x):
    """exp(x) - 1 for |x| <= 0.5 (Cephes' exp(x) - 1 branch outside)."""
    xx = x * x
    r = x * _polevl(xx, _EP)
    r = r / (_polevl(xx, _EQ) - r)
    return r + r


def _log1pmx(x):
    """log(1 + x) - x for |x| < 0.5, the only arguments it gets here.

    Cephes takes log1p(x) - x for |x| >= 0.5; here |x| < 0.32 in Temme's
    expansion and |x| < 0.43 in _igam_fac.
    """
    xfac = x
    res = 0.0
    for n in range(2, 500):
        xfac *= -x
        term = xfac / n
        res += term
        if abs(term) < MACHEP * abs(res):
            break
    return res


def _erfc(a):
    """erfc(a) for |a| < 8: Temme's expansion keeps |a| below 3.7.

    Cephes' branch for |a| >= 8 and its underflow to 0 or 2 are left out.
    """
    x = abs(a)
    if x < 1.0:
        # Cephes' erf(a) for |a| <= 1; its -erf(-a) for a < 0 is the same bits
        z = a * a
        return 1.0 - a * _polevl(z, _NDTR_T) / _p1evl(z, _NDTR_U)
    y = (math.exp(-a * a) * _polevl(x, _NDTR_P)) / _p1evl(x, _NDTR_Q)
    return 2.0 - y if a < 0 else y


# d_{k,n} of Temme's expansion (DLMF 8.12.12): rows 0-11 and columns 0-17 of the
# 25 x 25 table scipy ships, entry for entry. Where _asymptotic_series runs, a > 20
# and -0.361 < eta < 0.290, and both of its loops break by row 11 and column 17, so
# no later entry is ever read; test_cut_table_is_never_exhausted bounds both loops.
_IGAM_D = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
        0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
        3.919263178522438e-05, -2.1854485106799924e-06, -1.85406221071516e-06,
        8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
        -2.551419399494625e-11, -5.830772132550426e-11, 2.4361948020667415e-11,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
        4.162792991842583e-10, -8.56390702649298e-11, 6.067215101604758e-14,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.00010736653226365161, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062932e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617112e-09,
        9.428356159014678e-13, 1.2872252400089318e-10, -5.5645956134363323e-11,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
        -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
        -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
        -9.460496661855133e-10, 2.1541049775774907e-10, -1.388823336813903e-14,
    ),
    (
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
        -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
        1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
        8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
        2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09,
        -2.3024517174528067e-13, -3.9409233028046403e-10, 1.86023389685045e-10,
    ),
    (
        -0.00033679855336635813, -6.972813758365858e-05, 0.0002772753244959392,
        -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
        -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
        -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
        4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09,
        3.162417628774568e-09, -7.840924253697429e-10, 5.192679165254041e-15,
    ),
    (
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
        7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
        -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06,
        -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13,
        -8.828600746330484e-08, 4.7435958880408125e-08, -1.2545415020710382e-08,
        8.649648858010293e-14, 1.6846058979264062e-09, -8.575492823577594e-10,
    ),
    (
        0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
        0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
        2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06,
        4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
        -1.7562973359060463e-07, -1.297447328701544e-12, 2.695423606288966e-08,
        -1.4578352908731272e-08, 3.887645959386175e-09, -3.881002251019412e-17,
    ),
    (
        -0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721,
        -6.969091458420552e-07, 0.00016644846642067547, -0.00012783517679769218,
        4.629953263691304e-05, 4.557909867922708e-09, -1.0595271125805195e-05,
        6.783342904865167e-06, -2.1075476666258803e-06, -1.7213731432817144e-11,
        3.773587741611098e-07, -2.1867506700122867e-07, 6.220228804018927e-08,
        6.597703826733e-16, -9.590386497425686e-09, 5.213214492280807e-09,
    ),
    (
        -0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328,
        -0.0006401475260262758, 0.00027750107634328704, 1.819700838046515e-07,
        -8.479507117068503e-05, 6.105192082501531e-05, -2.1073920183404862e-05,
        -8.858589014125599e-10, 4.5284535953805374e-06, -2.8427815022504407e-06,
        8.708234177864641e-07, 3.6886101871706966e-12, -1.534469519070206e-07,
        8.862466778790695e-08, -2.5184812301826817e-08, -1.0225912098215092e-14,
    ),
    (
        0.0013324454494800656, -0.0019144384985654776, 0.0011089369134596636,
        9.9324041226423e-07, -0.0005087450129309319, 0.00042735056665392886,
        -0.000168588537679108, -8.1301893922785e-09, 4.5284402370562144e-05,
        -3.127053674781734e-05, 1.044986828530338e-05, 4.8435226265680926e-11,
        -2.148256587345626e-06, 1.329369701097492e-06, -4.029569309210103e-07,
        -1.756787766632329e-13, 7.014504316366825e-08, -4.040787734999483e-08,
    ),
    (
        0.001579727660730835, 0.00016251626278391583, -0.0020633421035543276,
        0.00213896861856891, -0.0010108559391263003, -3.99127055299192e-07,
        0.0003623502508476469, -0.00028143901463712157, 0.00010449513336495887,
        2.12114184918303e-09, -2.5779417251947842e-05, 1.7281818956040464e-05,
        -5.641377387290428e-06, -1.1024320105776174e-11, 1.1223224418895176e-06,
        -6.869339637952674e-07, 2.0653236975414888e-07, 4.6714772409838506e-14,
    ),
)
