// Shared helpers for the experiment benches: fixed-width table output
// so every bench prints paper-style rows, plus machine-readable CSV and
// JSON emitters so CI can diff metrics across runs.
#pragma once

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace cres::bench {

/// Prints a titled, fixed-width table.
class Table {
public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers)) {}

    template <typename... Cells>
    void row(Cells&&... cells) {
        std::vector<std::string> r;
        (r.push_back(to_cell(std::forward<Cells>(cells))), ...);
        rows_.push_back(std::move(r));
    }

    void print(std::ostream& os = std::cout) const {
        std::vector<std::size_t> widths(headers_.size());
        for (std::size_t i = 0; i < headers_.size(); ++i) {
            widths[i] = headers_[i].size();
        }
        for (const auto& r : rows_) {
            for (std::size_t i = 0; i < r.size() && i < widths.size(); ++i) {
                widths[i] = std::max(widths[i], r[i].size());
            }
        }
        auto print_row = [&](const std::vector<std::string>& r) {
            os << "| ";
            for (std::size_t i = 0; i < widths.size(); ++i) {
                os << std::left << std::setw(static_cast<int>(widths[i]))
                   << (i < r.size() ? r[i] : "") << " | ";
            }
            os << "\n";
        };
        print_row(headers_);
        os << "|";
        for (const auto w : widths) {
            os << std::string(w + 2, '-') << "-|";
        }
        os << "\n";
        for (const auto& r : rows_) print_row(r);
    }

    /// RFC 4180-ish CSV rendering of the same data: cells containing a
    /// comma, quote or newline are quoted, embedded quotes doubled.
    /// Escape hatch for reporters that want the table machine-readable.
    [[nodiscard]] std::string csv() const {
        std::string out;
        auto emit_row = [&out](const std::vector<std::string>& r) {
            for (std::size_t i = 0; i < r.size(); ++i) {
                if (i > 0) out += ',';
                const std::string& cell = r[i];
                if (cell.find_first_of(",\"\n") != std::string::npos) {
                    out += '"';
                    for (const char c : cell) {
                        if (c == '"') out += '"';
                        out += c;
                    }
                    out += '"';
                } else {
                    out += cell;
                }
            }
            out += '\n';
        };
        emit_row(headers_);
        for (const auto& r : rows_) emit_row(r);
        return out;
    }

private:
    // Explicit branches per value category keep this -Wconversion-clean:
    // integers never pass through iostream formatting (which would pick
    // up locale/width state), and floating-point values are narrowed
    // only after an explicit cast to double.
    template <typename T>
    static std::string to_cell(T&& value) {
        using Decayed = std::decay_t<T>;
        if constexpr (std::is_convertible_v<T, std::string>) {
            return std::string(std::forward<T>(value));
        } else if constexpr (std::is_same_v<Decayed, bool>) {
            return value ? "true" : "false";
        } else if constexpr (std::is_integral_v<Decayed>) {
            if constexpr (std::is_signed_v<Decayed>) {
                return std::to_string(static_cast<std::int64_t>(value));
            } else {
                return std::to_string(static_cast<std::uint64_t>(value));
            }
        } else if constexpr (std::is_floating_point_v<Decayed>) {
            std::ostringstream os;
            os << static_cast<double>(value);
            return os.str();
        } else {
            std::ostringstream os;
            os << value;
            return os.str();
        }
    }

    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// Accumulates named benchmark metrics and writes them as one flat JSON
/// object, insertion-ordered, so CI can archive and diff runs without a
/// table parser. Numeric metrics carry their unit in the key suffix
/// (callers pick keys like "sha256_1KiB_mb_per_s"); string fields hold
/// environment facts (backend name, build type) or embedded CSV tables.
class JsonReporter {
public:
    void metric(std::string key, double value) {
        entries_.emplace_back(std::move(key), format_double(value));
    }

    /// An exact integer (metric() keeps 6 significant digits).
    void count(std::string key, std::uint64_t value) {
        entries_.emplace_back(std::move(key), std::to_string(value));
    }

    void field(std::string key, const std::string& value) {
        entries_.emplace_back(std::move(key), quote(value));
    }

    [[nodiscard]] std::string json() const {
        std::string out = "{\n";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            out += "  ";
            out += quote(entries_[i].first);
            out += ": ";
            out += entries_[i].second;
            if (i + 1 < entries_.size()) out += ',';
            out += '\n';
        }
        out += "}\n";
        return out;
    }

    /// Returns false (and prints to stderr) if the file cannot be
    /// written; benches treat that as non-fatal so a read-only CWD
    /// does not kill the run.
    bool write(const std::string& path) const {
        std::ofstream out(path);
        if (!out) {
            std::cerr << "JsonReporter: cannot write " << path << "\n";
            return false;
        }
        out << json();
        return static_cast<bool>(out);
    }

private:
    static std::string format_double(double value) {
        std::ostringstream os;
        os << std::setprecision(6) << value;
        return os.str();
    }

    static std::string quote(const std::string& s) {
        std::string out = "\"";
        for (const char c : s) {
            switch (c) {
                case '"': out += "\\\""; break;
                case '\\': out += "\\\\"; break;
                case '\n': out += "\\n"; break;
                case '\t': out += "\\t"; break;
                case '\r': out += "\\r"; break;
                default:
                    if (static_cast<unsigned char>(c) < 0x20) {
                        std::ostringstream os;
                        os << "\\u" << std::hex << std::setw(4)
                           << std::setfill('0') << static_cast<int>(c);
                        out += os.str();
                    } else {
                        out += c;
                    }
            }
        }
        out += '"';
        return out;
    }

    std::vector<std::pair<std::string, std::string>> entries_;
};

/// Reads one "<key>:  <n> kB" entry from /proc/self/status, returning
/// the value in bytes (0 on non-Linux hosts or parse failure — callers
/// must treat 0 as "probe unavailable", not "no memory").
inline std::size_t proc_status_bytes(const std::string& key) {
#ifdef __linux__
    std::ifstream status("/proc/self/status");
    if (!status) return 0;
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(key + ":", 0) != 0) continue;
        std::istringstream fields(line.substr(key.size() + 1));
        std::size_t kib = 0;
        if (fields >> kib) return kib * 1024;
        return 0;
    }
#else
    (void)key;
#endif
    return 0;
}

/// Peak resident set (VmHWM): the process-lifetime high-water mark —
/// the honest denominator for bytes-per-node at the largest sweep size.
inline std::size_t peak_rss_bytes() { return proc_status_bytes("VmHWM"); }

/// Current resident set (VmRSS): deltas around a phase give that
/// phase's footprint while the process is still below its peak.
inline std::size_t current_rss_bytes() { return proc_status_bytes("VmRSS"); }

inline void section(const std::string& title) {
    std::cout << "\n=== " << title << " ===\n\n";
}

inline std::string fmt_double(double v, int precision = 2) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

inline std::string yesno(bool v) { return v ? "yes" : "no"; }

}  // namespace cres::bench
