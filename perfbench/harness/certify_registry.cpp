/**
 * @file
 * certify-registry: one PmfCertifier::certifyAll() per op -- the exact
 * Eq. (4) certification of every registered mechanism at Bu = 16,
 * eps = 0.5, n = 2, with two jobs.
 *
 * The PMF memo cache is cleared before every op, so each op does the
 * identical full enumeration. The seed shifts the sensor range by a
 * whole number of grid steps: the certified work is the same for every
 * seed (it depends only on the range length), but the inputs come from
 * the seed like every other workload's.
 */

#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "bench.h"
#include "core/mechanism_registry.h"
#include "core/pmf_certifier.h"
#include "core/privacy_loss.h"
#include "rng/fxp_laplace_pmf.h"

namespace perfbench {
namespace {

using namespace ulpdp;

constexpr double kLossMultiple = 2.0;
constexpr int kJobs = 2;

class CertifyRegistry : public Workload
{
  public:
    CertifyRegistry(uint64_t seed, const std::string &work_dir)
        : json_path_(work_dir + "/certificates-" + std::to_string(seed) +
                     ".json")
    {
        profile_.epsilon = 0.5;
        profile_.uniform_bits = 16;
        profile_.delta = 10.0 / 32.0;
        double lo = static_cast<double>(
                        static_cast<int64_t>(mixSeed(seed, 21) % 129) -
                        64) *
                    profile_.delta;
        profile_.range = SensorRange(lo, lo + 10.0);
    }

    unsigned threads() const override { return kJobs; }

    double
    setup(Tracer *tr) override
    {
        Clock::time_point t0 = Clock::now();
        certifier_ = std::make_unique<PmfCertifier>(profile_,
                                                    kLossMultiple);
        certifier_->setJobs(kJobs);
        Clock::time_point t1 = Clock::now();
        if (tr != nullptr)
            tr->record("certify.setup", -1, 0, t0, t1);
        return secondsBetween(t0, t1);
    }

    std::string
    prepare() override
    {
        beforeOp();
        op(nullptr, -1, 0);
        reference_.clear();
        std::string why = verify();
        if (!why.empty())
            return why;
        reference_ = last_json_;
        return "";
    }

    void beforeOp() override { FxpLaplacePmf::clearSharedCache(); }

    uint64_t
    op(Tracer *tr, int root, uint64_t id) override
    {
        Clock::time_point t0 = Clock::now();
        certs_ = certifier_->certifyAll();
        if (tr != nullptr)
            tr->record("certify.all", root, id, t0, Clock::now());
        return certs_.size();
    }

    std::string
    verify() override
    {
        if (!PmfCertifier::allCertified(certs_))
            return "a registered mechanism failed certification";
        // The timing-free certificate JSON, byte for byte.
        PmfCertifier::writeJson(certs_, json_path_, false);
        std::ifstream in(json_path_, std::ios::binary);
        std::stringstream bytes;
        bytes << in.rdbuf();
        last_json_ = bytes.str();
        if (last_json_.empty())
            return "certificate JSON was not written";
        if (!reference_.empty() && last_json_ != reference_)
            return "certificate JSON differs from the first op's";
        return "";
    }

    void replay(Tracer &tr, int root, uint64_t id) override;
    void layers(MetricMap &out) const override;

  private:
    MechanismSpec
    spec() const
    {
        MechanismSpec s;
        s.params = profile_;
        s.loss_multiple = kLossMultiple;
        s.enumerate_pmf = true;
        return s;
    }

    FxpMechanismParams profile_;
    std::string json_path_;
    std::unique_ptr<PmfCertifier> certifier_;
    std::vector<MechanismCertificate> certs_;
    std::string reference_;
    std::string last_json_;

    // Traced-run state.
    std::vector<double> pmf_ms_, sup_ms_;
    std::map<std::string, std::vector<double>> mech_ms_;
    double min_margin_ = 0.0;
    bool counted_ = false;
};

void
CertifyRegistry::replay(Tracer &tr, int root, uint64_t id)
{
    const MechanismRegistry &reg = MechanismRegistry::instance();
    std::vector<std::string> names = reg.names();

    // Base PMF enumeration, once per distinct resolved configuration
    // (what the memo cache builds during an op).
    std::set<std::tuple<int, int, double, double, int>> seen;
    Clock::time_point p0 = Clock::now();
    for (const std::string &n : names) {
        const MechanismRegistry::Entry &e = reg.at(n);
        FxpLaplaceConfig c =
            (e.lower ? e.lower(spec()).params : profile_).rngConfig();
        if (!seen.emplace(c.uniform_bits, c.output_bits, c.delta,
                          c.lambda, static_cast<int>(c.rounding))
                 .second)
            continue;
        FxpLaplacePmf pmf(c, FxpLaplacePmf::Mode::Enumerated);
        if (pmf.totalCount() == 0)
            std::printf("# (empty pmf)\n");
    }
    Clock::time_point p1 = Clock::now();
    tr.record("certify.pmf", root, id, p0, p1, seen.size(), -1, true);
    pmf_ms_.push_back(secondsBetween(p0, p1) * 1e3);

    // The exact loss sup over each mechanism's output model (models
    // built untimed from the now-warm cache).
    double sup_s = 0.0;
    for (const std::string &n : names) {
        const MechanismRegistry::Entry &e = reg.at(n);
        MechanismSpec s = spec();
        if (e.lower)
            s.threshold_index = e.lower(s).threshold_index;
        std::unique_ptr<DiscreteOutputModel> model = e.model(s);
        Clock::time_point a = Clock::now();
        LossReport rep = PrivacyLossAnalyzer::analyze(*model, kJobs);
        Clock::time_point b = Clock::now();
        tr.record("certify.sup", root, id, a, b, 1, -1, true);
        sup_s += secondsBetween(a, b);
        if (!rep.bounded)
            std::printf("# (unbounded %s)\n", n.c_str());
    }
    sup_ms_.push_back(sup_s * 1e3);

    // One certify(name) per mechanism from a cold cache, in
    // registration order (the first one pays for the shared PMF).
    FxpLaplacePmf::clearSharedCache();
    for (const std::string &n : names) {
        Clock::time_point a = Clock::now();
        MechanismCertificate c = certifier_->certify(n);
        Clock::time_point b = Clock::now();
        tr.record("certify." + n, root, id, a, b, 1, -1, true);
        mech_ms_[n].push_back(secondsBetween(a, b) * 1e3);
        if (!c.certified)
            std::printf("# (uncertified %s)\n", n.c_str());
    }

    if (!counted_) {
        min_margin_ = certs_.front().margin;
        for (const MechanismCertificate &c : certs_)
            min_margin_ = std::min(min_margin_, c.margin);
        uint64_t fnv = 0xcbf29ce484222325ULL;
        for (unsigned char ch : last_json_)
            fnv = (fnv ^ ch) * 0x100000001b3ULL;
        std::printf("# certify-registry certificate JSON: %zu bytes, "
                    "FNV-1a %016llx\n",
                    last_json_.size(),
                    static_cast<unsigned long long>(fnv));
        counted_ = true;
    }
}

void
CertifyRegistry::layers(MetricMap &out) const
{
    out["certify.pmf_ms"] = {median(pmf_ms_), "ms"};
    out["certify.sup_ms"] = {median(sup_ms_), "ms"};
    for (const auto &[name, ms] : mech_ms_)
        out["certify." + name + "_ms"] = {median(ms), "ms"};
    out["certify.min_margin"] = {min_margin_, "nats"};
}

} // namespace

std::unique_ptr<Workload>
makeCertifyRegistry(uint64_t seed, const std::string &work_dir)
{
    return std::make_unique<CertifyRegistry>(seed, work_dir);
}

} // namespace perfbench
